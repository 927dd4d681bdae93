#include "sim/forwarding_engine.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"

namespace pr::sim {

HopDecision ForwardingEngine::decide(FlowState& fs) const {
  const graph::Graph& g = net_->graph();
  if (fs.at == fs.packet.destination) {
    return {HopDecision::Kind::kDelivered, graph::kInvalidDart, DropReason::kNone};
  }
  if (fs.packet.ttl == 0) {
    return {HopDecision::Kind::kDropped, graph::kInvalidDart, DropReason::kTtlExpired};
  }
  const net::ForwardingDecision decision =
      protocol_->forward(*net_, fs.at, fs.arrived_over, fs.packet);
  switch (decision.action) {
    case net::ForwardingDecision::Action::kDeliver:
      // Protocols may only deliver at the destination.
      if (fs.at != fs.packet.destination) {
        throw std::logic_error(
            "ForwardingEngine: protocol delivered away from destination");
      }
      return {HopDecision::Kind::kDelivered, graph::kInvalidDart, DropReason::kNone};
    case net::ForwardingDecision::Action::kDrop:
      return {HopDecision::Kind::kDropped, graph::kInvalidDart, decision.reason};
    case net::ForwardingDecision::Action::kForward:
      break;
  }
  const DartId out = decision.out_dart;
  if (out == graph::kInvalidDart || g.dart_tail(out) != fs.at) {
    throw std::logic_error("ForwardingEngine: protocol forwarded from the wrong node");
  }
  if (!net_->dart_usable(out)) {
    throw std::logic_error("ForwardingEngine: protocol forwarded over a failed link (" +
                           g.dart_name(out) + ")");
  }
  return {HopDecision::Kind::kForward, out, DropReason::kNone};
}

void ForwardingEngine::commit(FlowState& fs, DartId out) const {
  const graph::Graph& g = net_->graph();
  fs.cost += g.edge_weight(graph::dart_edge(out));
  ++fs.hops;
  --fs.packet.ttl;
  fs.at = g.dart_head(out);
  fs.arrived_over = out;
}

std::vector<FlowSpec> all_pairs_flows(const graph::Graph& g) {
  std::vector<FlowSpec> flows;
  if (g.node_count() < 2) return flows;
  flows.reserve(g.node_count() * (g.node_count() - 1));
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s != t) flows.push_back(FlowSpec{s, t});
    }
  }
  return flows;
}

namespace {

/// The one batch loop both route_batch overloads drive.  The friended public
/// functions pass BatchResult's internals in, so this stays file-local; the
/// per-hop hook receives (flow index, FlowState) after every committed hop
/// (fs.arrived_over is the dart just taken) and compiles away when empty.
template <typename PerHop>
void run_flow_batch(const Network& net, ForwardingProtocol& protocol,
                    std::span<const FlowSpec> flows, TraceMode mode,
                    std::vector<FlowStats>& stats, std::vector<NodeId>& nodes,
                    std::vector<DartId>& darts, std::vector<std::size_t>& offsets,
                    std::size_t& delivered, PerHop&& per_hop) {
  const graph::Graph& g = net.graph();
  for (const FlowSpec& flow : flows) {
    if (flow.source >= g.node_count() || flow.destination >= g.node_count()) {
      throw std::out_of_range("route_batch: endpoint out of range");
    }
  }
  const std::uint32_t fallback_ttl = net::default_ttl(g);

  stats.reserve(flows.size());
  if (mode == TraceMode::kFullTrace) offsets.reserve(flows.size() + 1);

  const ForwardingEngine engine(net, protocol);
  // Dataplane telemetry accumulates in locals and flushes ONCE per batch:
  // the hot loop never touches thread-local state, and a disabled sink costs
  // exactly one branch per route_batch call.
  const bool observed = obs::enabled();
  std::uint64_t obs_delivered = 0;
  std::uint64_t obs_dropped = 0;
  std::uint64_t obs_hops = 0;
  std::uint64_t obs_decisions = 0;
  std::uint64_t obs_cycle_flows = 0;
  std::uint64_t obs_cycle_hops = 0;
  FlowState fs;  // recycled across flows; FCP-list capacity survives reset()
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& flow = flows[i];
    fs.reset(flow.source, flow.destination,
             flow.ttl == 0 ? fallback_ttl : flow.ttl, flow.traffic_class);

    FlowOutcome outcome;
    if (mode == TraceMode::kFullTrace) {
      offsets.push_back(nodes.size());
      nodes.push_back(flow.source);
      outcome = engine.run(fs, [&](NodeId v) {
        nodes.push_back(v);
        darts.push_back(fs.arrived_over);
        per_hop(i, fs);
      });
    } else {
      outcome = engine.run(fs, [&](NodeId) { per_hop(i, fs); });
    }

    stats.push_back(FlowStats{outcome.status, outcome.reason, fs.hops, fs.cost});
    if (outcome.status == DeliveryStatus::kDelivered) ++delivered;
    if (observed) {
      obs_hops += fs.hops;
      obs_decisions += fs.hops - outcome.replayed_hops;
      if (outcome.status == DeliveryStatus::kDelivered) {
        ++obs_delivered;
      } else {
        ++obs_dropped;
      }
      if (fs.packet.pr_bit) {
        // The flow ended in PR cycle-follow mode: its whole walk priced the
        // paper's recovery mechanism, so its hop count feeds the
        // cycle-follow-length telemetry.
        ++obs_cycle_flows;
        obs_cycle_hops += fs.hops;
      }
    }
  }
  if (mode == TraceMode::kFullTrace) offsets.push_back(nodes.size());
  if (observed) {
    obs::count(obs::Counter::kFlowsRouted, flows.size());
    obs::count(obs::Counter::kFlowsDelivered, obs_delivered);
    obs::count(obs::Counter::kFlowsDropped, obs_dropped);
    obs::count(obs::Counter::kForwardHops, obs_hops);
    obs::count(obs::Counter::kForwardDecisions, obs_decisions);
    obs::count(obs::Counter::kCycleFollowFlows, obs_cycle_flows);
    obs::count(obs::Counter::kCycleFollowHops, obs_cycle_hops);
  }
}

}  // namespace

void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, TraceMode mode, BatchResult& out) {
  out.clear();
  out.mode_ = mode;
  run_flow_batch(net, protocol, flows, mode, out.stats_, out.nodes_, out.darts_,
                 out.offsets_, out.delivered_, [](std::size_t, const FlowState&) {});
}

BatchResult route_batch(const Network& net, ForwardingProtocol& protocol,
                        std::span<const FlowSpec> flows, TraceMode mode) {
  BatchResult out;
  route_batch(net, protocol, flows, mode, out);
  return out;
}

void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, std::span<const double> demands,
                 traffic::LoadMap& load, TraceMode mode, BatchResult& out) {
  if (demands.size() != flows.size()) {
    throw std::invalid_argument("route_batch: one demand per flow required");
  }
  out.clear();
  out.mode_ = mode;
  load.reset(net.graph().dart_count());
  run_flow_batch(net, protocol, flows, mode, out.stats_, out.nodes_, out.darts_,
                 out.offsets_, out.delivered_,
                 [&load, demands](std::size_t i, const FlowState& fs) {
                   load.add(fs.arrived_over, demands[i]);
                 });
}

}  // namespace pr::sim
