#include "route/lfa.hpp"

namespace pr::route {

LfaRouting::LfaRouting(const RoutingDb& routes, LfaKind kind)
    : routes_(&routes), kind_(kind) {
  const Graph& g = routes.graph();
  const std::size_t n = g.node_count();
  alternate_.assign(n * n, graph::kInvalidDart);
  for (NodeId dest = 0; dest < n; ++dest) {
    for (NodeId v = 0; v < n; ++v) {
      alternate_[index(v, dest)] = compute_pair(g, v, dest);
    }
  }
}

DartId LfaRouting::compute_pair(const Graph& g, NodeId v, NodeId dest) const {
  const RoutingDb& routes = *routes_;
  if (v == dest || !routes.reachable(v, dest)) return graph::kInvalidDart;
  const DartId primary = routes.next_dart(v, dest);
  const NodeId primary_hop = g.dart_head(primary);
  const Weight d_v_t = routes.cost(v, dest);
  Weight best_cost = graph::kUnreachable;
  DartId best = graph::kInvalidDart;
  for (DartId cand : g.out_darts(v)) {
    if (cand == primary) continue;
    const NodeId nb = g.dart_head(cand);
    if (!routes.reachable(nb, dest)) continue;
    const Weight d_n_t = routes.cost(nb, dest);
    const Weight d_n_v = routes.cost(nb, v);
    if (!(d_n_t < d_n_v + d_v_t)) continue;  // RFC 5286 loop-free condition
    if (kind_ == LfaKind::kNodeProtecting && nb != dest && primary_hop != dest) {
      // Must also avoid the primary next-hop router entirely.
      const Weight d_n_p = routes.cost(nb, primary_hop);
      const Weight d_p_t = routes.cost(primary_hop, dest);
      if (!(d_n_t < d_n_p + d_p_t)) continue;
    }
    const Weight via = g.edge_weight(graph::dart_edge(cand)) + d_n_t;
    if (via < best_cost) {
      best_cost = via;
      best = cand;
    }
  }
  return best;
}

net::ForwardingDecision LfaRouting::forward(const net::Network& net, NodeId at,
                                            DartId /*arrived_over*/,
                                            net::Packet& packet) {
  if (at == packet.destination) return net::ForwardingDecision::deliver();
  const DartId primary = routes_->next_dart(at, packet.destination);
  if (primary == graph::kInvalidDart) {
    return net::ForwardingDecision::drop(net::DropReason::kNoRoute);
  }
  if (net.dart_usable(primary)) return net::ForwardingDecision::forward(primary);
  const DartId alt = alternate_[index(at, packet.destination)];
  if (alt != graph::kInvalidDart && net.dart_usable(alt)) {
    return net::ForwardingDecision::forward(alt);
  }
  return net::ForwardingDecision::drop(net::DropReason::kNoRoute);
}

double LfaRouting::alternate_coverage() const {
  const Graph& g = routes_->graph();
  const std::size_t n = g.node_count();
  std::size_t pairs = 0;
  std::size_t covered = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId t = 0; t < n; ++t) {
      if (v == t || !routes_->reachable(v, t)) continue;
      ++pairs;
      if (alternate_[index(v, t)] != graph::kInvalidDart) ++covered;
    }
  }
  return pairs == 0 ? 0.0 : static_cast<double>(covered) / static_cast<double>(pairs);
}

}  // namespace pr::route
