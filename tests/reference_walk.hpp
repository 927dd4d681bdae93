// The hop-by-hop reference walk the forwarding engine is tested against.
//
// sim::ForwardingEngine::run takes hops from a walk log instead of deciding
// every hop: the period of a walk that loops until the TTL guard, and in a
// route_batch call the hops an earlier flow decided.  This walk calls
// decide() and commit() once per hop, as the event simulator does, so the
// protocol makes every decision itself.  route_packet and route_batch must
// match it bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "net/forwarding.hpp"
#include "sim/forwarding_engine.hpp"

namespace pr::test_support {

/// Everything the per-hop walk of one flow produced.
struct ReferenceWalk {
  net::PathTrace trace;             ///< nodes, status, hops, cost, final header
  std::vector<graph::DartId> darts;  ///< the darts crossed, in hop order
};

/// Walks one flow with a decide()/commit() loop.  `ttl` of 0 selects
/// net::default_ttl(), as route_packet does.
inline ReferenceWalk reference_walk(const net::Network& network,
                                    net::ForwardingProtocol& protocol,
                                    graph::NodeId source, graph::NodeId destination,
                                    std::uint32_t ttl = 0,
                                    std::uint8_t traffic_class = 0) {
  const sim::ForwardingEngine engine(network, protocol);
  sim::FlowState fs;
  fs.reset(source, destination, ttl == 0 ? net::default_ttl(network.graph()) : ttl,
           traffic_class);
  ReferenceWalk walk;
  walk.trace.nodes.push_back(source);
  sim::HopDecision d = engine.decide(fs);
  for (; d.kind == sim::HopDecision::Kind::kForward; d = engine.decide(fs)) {
    engine.commit(fs, d.out_dart);
    walk.trace.nodes.push_back(fs.at);
    walk.darts.push_back(d.out_dart);
  }
  walk.trace.status = d.kind == sim::HopDecision::Kind::kDelivered
                          ? net::DeliveryStatus::kDelivered
                          : net::DeliveryStatus::kDropped;
  walk.trace.drop_reason = d.reason;
  walk.trace.cost = fs.cost;
  walk.trace.hops = fs.hops;
  walk.trace.final_packet = fs.packet;
  return walk;
}

}  // namespace pr::test_support
