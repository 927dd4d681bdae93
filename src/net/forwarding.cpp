#include "net/forwarding.hpp"

#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/forwarding_engine.hpp"

namespace pr::net {

std::string_view drop_reason_name(DropReason r) noexcept {
  switch (r) {
    case DropReason::kNone:
      return "none";
    case DropReason::kNoRoute:
      return "no-route";
    case DropReason::kTtlExpired:
      return "ttl-expired";
    case DropReason::kPolicy:
      return "policy";
    case DropReason::kCongestion:
      return "congestion";
  }
  return "unknown";
}

std::string trace_to_string(const Graph& g, const PathTrace& trace) {
  std::ostringstream out;
  for (std::size_t i = 0; i < trace.nodes.size(); ++i) {
    out << (i ? " > " : "") << g.display_name(trace.nodes[i]);
  }
  if (trace.delivered()) {
    out << " (delivered, " << trace.hops << " hops, cost " << trace.cost << ")";
  } else {
    out << " (DROPPED after " << trace.hops
        << " hops: " << drop_reason_name(trace.drop_reason) << ")";
  }
  return out.str();
}

std::uint32_t default_ttl(const Graph& g) noexcept {
  return static_cast<std::uint32_t>(4 * g.edge_count() + 16);
}

// Thin shim over the shared hop core (sim::ForwardingEngine); kept for API
// compatibility and for callers that want the full per-packet PathTrace
// including the final header state.
PathTrace route_packet(const Network& net, ForwardingProtocol& protocol, NodeId source,
                       NodeId destination, std::uint32_t ttl,
                       std::uint8_t traffic_class) {
  const Graph& g = net.graph();
  if (source >= g.node_count() || destination >= g.node_count()) {
    throw std::out_of_range("route_packet: endpoint out of range");
  }
  if (ttl == 0) ttl = default_ttl(g);

  const sim::ForwardingEngine engine(net, protocol);
  sim::FlowState fs;
  fs.reset(source, destination, ttl, traffic_class);

  PathTrace trace;
  trace.nodes.push_back(source);
  struct NodeSink {
    const Graph* g;
    std::vector<NodeId>* nodes;
    void hop(const sim::FlowState& s) { nodes->push_back(s.at); }
    void span(std::span<const DartId> darts, std::uint32_t laps) {
      // The heads of one lap, then laps - 1 copies of them.
      const std::size_t first = nodes->size();
      for (const DartId d : darts) nodes->push_back(g->dart_head(d));
      nodes->resize(first + darts.size() * laps);
      for (std::size_t i = first + darts.size(); i < nodes->size(); ++i) {
        (*nodes)[i] = (*nodes)[i - darts.size()];
      }
    }
  } sink{&g, &trace.nodes};
  sim::WalkLog log;  // this walk's own
  const sim::FlowOutcome outcome = engine.run(fs, log, sink);

  trace.status = outcome.status;
  trace.drop_reason = outcome.reason;
  trace.cost = fs.cost;
  trace.hops = fs.hops;
  trace.final_packet = std::move(fs.packet);
  return trace;
}

}  // namespace pr::net
