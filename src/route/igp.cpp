#include "route/igp.hpp"

#include <stdexcept>

namespace pr::route {

using graph::EdgeId;
using graph::NodeId;

/// Data-plane forwarding against the per-router tables of the moment.
class LinkStateIgp::Forwarding final : public net::ForwardingProtocol {
 public:
  explicit Forwarding(LinkStateIgp& igp) : igp_(&igp) {}

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, NodeId at,
                                                graph::DartId /*arrived_over*/,
                                                net::Packet& packet) override {
    if (at == packet.destination) return net::ForwardingDecision::deliver();
    const graph::DartId out =
        igp_->fib_[static_cast<std::size_t>(at) * igp_->node_count_ + packet.destination];
    if (out == graph::kInvalidDart) {
      return net::ForwardingDecision::drop(net::DropReason::kNoRoute);
    }
    if (!net.dart_usable(out)) {
      // The router's own interface is down but its table still points there:
      // the classic pre-convergence loss.
      return net::ForwardingDecision::drop(net::DropReason::kPolicy);
    }
    return net::ForwardingDecision::forward(out);
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "igp"; }

 private:
  LinkStateIgp* igp_;
};

LinkStateIgp::LinkStateIgp(net::Simulator& sim, net::Network& network)
    : LinkStateIgp(sim, network, Timings{}) {}

LinkStateIgp::~LinkStateIgp() = default;

net::ForwardingProtocol& LinkStateIgp::protocol() noexcept { return *protocol_; }

LinkStateIgp::LinkStateIgp(net::Simulator& sim, net::Network& network, Timings timings)
    : sim_(&sim), network_(&network), timings_(timings) {
  const auto& g = network.graph();
  tables_ = &cache_.tables(g, graph::EdgeSet(g.edge_count()));
  node_count_ = g.node_count();
  fib_.resize(node_count_ * node_count_);
  known_failures_.reserve(node_count_);
  recompute_pending_.assign(node_count_, 0);
  for (NodeId v = 0; v < node_count_; ++v) {
    known_failures_.emplace_back(g.edge_count());
    install_row(*tables_, v);
  }
  protocol_ = std::make_unique<Forwarding>(*this);
}

std::size_t LinkStateIgp::table_bytes() const noexcept {
  return tables_->bytes() + fib_.capacity() * sizeof(graph::DartId);
}

void LinkStateIgp::install_row(const RoutingDb& tables, NodeId v) {
  graph::DartId* row = fib_.data() + static_cast<std::size_t>(v) * node_count_;
  for (NodeId t = 0; t < node_count_; ++t) row[t] = tables.next_dart(v, t);
}

void LinkStateIgp::on_link_failure(EdgeId e) {
  ++injected_failures_;
  const auto& g = network_->graph();
  // Both endpoints detect the loss after the detection delay, adopt the
  // information and start flooding.
  for (const NodeId endpoint : {g.edge_u(e), g.edge_v(e)}) {
    sim_->after(timings_.detection_delay, [this, endpoint, e] { learn(endpoint, e); });
  }
}

void LinkStateIgp::learn(NodeId v, EdgeId e) {
  if (known_failures_[v].contains(e)) return;  // duplicate LSA: drop silently
  known_failures_[v].insert(e);
  schedule_recompute(v);
  flood_from(v, e);
}

void LinkStateIgp::flood_from(NodeId v, EdgeId e) {
  const auto& g = network_->graph();
  for (const graph::DartId d : g.out_darts(v)) {
    const EdgeId link = graph::dart_edge(d);
    // LSAs travel only over links the sender believes usable AND that are
    // physically up at transmission time.
    if (known_failures_[v].contains(link) || !network_->link_up(link)) continue;
    const NodeId neighbour = g.dart_head(d);
    ++lsa_messages_;
    sim_->after(network_->link_delay(link) + timings_.lsa_processing,
                [this, neighbour, e] { learn(neighbour, e); });
  }
}

void LinkStateIgp::schedule_recompute(NodeId v) {
  if (recompute_pending_[v] != 0) return;  // SPF throttled: one run pending
  recompute_pending_[v] = 1;
  sim_->after(timings_.spf_delay, [this, v] {
    recompute_pending_[v] = 0;
    // Delta-repair the cache's db to this router's knowledge (a cache hit
    // when the previous recompute already left it there -- common once
    // flooding has equalised the link-state databases), then install the
    // router's row.  A new db means the graph changed under the FIB.
    const RoutingDb& tables = cache_.tables(network_->graph(), known_failures_[v]);
    if (&tables != tables_) {
      throw std::logic_error("LinkStateIgp: graph was mutated since construction");
    }
    install_row(tables, v);
    ++spf_runs_;
    last_update_ = sim_->now();
  });
}

bool LinkStateIgp::converged(NodeId v) const {
  // v is converged when it knows every injected failure and has folded that
  // knowledge into its table (no recompute pending).
  if (recompute_pending_[v] != 0) return false;
  const auto& actual = network_->failed_links();
  for (const EdgeId e : actual.elements()) {
    if (!known_failures_[v].contains(e)) return false;
  }
  return true;
}

bool LinkStateIgp::fully_converged() const {
  for (NodeId v = 0; v < network_->graph().node_count(); ++v) {
    if (!converged(v)) return false;
  }
  return true;
}

}  // namespace pr::route
