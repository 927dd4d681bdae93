// Unit tests for the Network link-state overlay and the packet walker.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "net/forwarding.hpp"

namespace pr::net {
namespace {

TEST(Network, LinksStartUp) {
  const auto g = graph::ring(4);
  const Network net(g);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_TRUE(net.link_up(e));
    EXPECT_TRUE(net.dart_usable(graph::make_dart(e, 0)));
    EXPECT_TRUE(net.dart_usable(graph::make_dart(e, 1)));
  }
  EXPECT_EQ(net.failure_count(), 0U);
}

TEST(Network, FailureIsBidirectional) {
  const auto g = graph::ring(4);
  Network net(g);
  net.fail_link(0);
  EXPECT_FALSE(net.link_up(0));
  EXPECT_FALSE(net.dart_usable(graph::make_dart(0, 0)));
  EXPECT_FALSE(net.dart_usable(graph::make_dart(0, 1)));
  net.restore_link(0);
  EXPECT_TRUE(net.link_up(0));
}

TEST(Network, NodeFailureDownsAllIncidentLinks) {
  const auto g = graph::complete(4);
  Network net(g);
  net.fail_node(0);
  EXPECT_EQ(net.failure_count(), 3U);
  for (graph::DartId d : g.out_darts(0)) {
    EXPECT_FALSE(net.dart_usable(d));
  }
  // Links between other nodes stay up.
  EXPECT_TRUE(net.link_up(*g.find_edge(1, 2)));
}

TEST(Network, ResetRestoresEverything) {
  const auto g = graph::ring(5);
  Network net(g);
  net.fail_link(1);
  net.fail_link(3);
  net.reset();
  EXPECT_EQ(net.failure_count(), 0U);
}

TEST(Network, FailedLinksUsableAsDijkstraFilter) {
  const auto g = graph::ring(4);
  Network net(g);
  net.fail_link(0);
  const auto spt = graph::shortest_paths_to(g, 0, &net.failed_links());
  EXPECT_TRUE(spt.reachable(1));
}

TEST(Network, Validation) {
  const auto g = graph::ring(3);
  Network net(g);
  EXPECT_THROW(net.fail_link(99), std::out_of_range);
  EXPECT_THROW(net.restore_link(99), std::out_of_range);
  EXPECT_THROW(net.set_link_delay(0, -1.0), std::invalid_argument);
  EXPECT_THROW(net.set_processing_delay(-1.0), std::invalid_argument);
}

TEST(Network, DelayDefaultsAndOverrides) {
  const auto g = graph::ring(3);
  Network net(g);
  EXPECT_DOUBLE_EQ(net.link_delay(0), 1e-3);
  net.set_link_delay(0, 5e-3);
  EXPECT_DOUBLE_EQ(net.link_delay(0), 5e-3);
  net.set_processing_delay(1e-6);
  EXPECT_DOUBLE_EQ(net.processing_delay(), 1e-6);
}

// A trivial protocol for exercising the walker contract: takes the first
// usable interface, avoiding the one it arrived on when possible.  Counts its
// decisions.
class HotPotato final : public ForwardingProtocol {
 public:
  ForwardingDecision forward(const Network& net, NodeId at, DartId arrived_over,
                             Packet& packet) override {
    ++calls;
    if (at == packet.destination) return ForwardingDecision::deliver();
    DartId fallback = graph::kInvalidDart;
    for (DartId d : net.graph().out_darts(at)) {
      if (!net.dart_usable(d)) continue;
      if (arrived_over != graph::kInvalidDart && d == graph::reverse(arrived_over)) {
        fallback = d;
        continue;
      }
      return ForwardingDecision::forward(d);
    }
    if (fallback != graph::kInvalidDart) return ForwardingDecision::forward(fallback);
    return ForwardingDecision::drop(DropReason::kNoRoute);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "hot-potato"; }

  std::size_t calls = 0;
};

// Deliberately broken: forwards over failed links.
class LawBreaker final : public ForwardingProtocol {
 public:
  ForwardingDecision forward(const Network& net, NodeId at, DartId,
                             Packet& packet) override {
    if (at == packet.destination) return ForwardingDecision::deliver();
    return ForwardingDecision::forward(net.graph().out_darts(at)[0]);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "law-breaker"; }
};

TEST(RoutePacket, DeliversOnALine) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Network net(g);
  HotPotato proto;
  const auto trace = route_packet(net, proto, 0, 2);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.hops, 2U);
  EXPECT_DOUBLE_EQ(trace.cost, 2.0);
  EXPECT_EQ(trace.nodes.size(), 3U);
}

TEST(RoutePacket, DeliveredWalkDecidesEveryHop) {
  // Long enough for the engine to watch for a repeated state: a walk that
  // reaches its destination never repeats one, so every hop is decided.
  const auto g = graph::ring(24);
  Network net(g);
  HotPotato proto;
  const auto trace = route_packet(net, proto, 0, 12);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.hops, 12U);
  EXPECT_EQ(proto.calls, trace.hops);
}

TEST(RoutePacket, SourceEqualsDestination) {
  const auto g = graph::ring(3);
  Network net(g);
  HotPotato proto;
  const auto trace = route_packet(net, proto, 1, 1);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.hops, 0U);
  EXPECT_DOUBLE_EQ(trace.cost, 0.0);
}

// Always bounces the packet straight back where it came from.  Counts its
// decisions.
class Bouncer final : public ForwardingProtocol {
 public:
  ForwardingDecision forward(const Network& net, NodeId at, DartId arrived_over,
                             Packet& packet) override {
    ++calls;
    if (at == packet.destination) return ForwardingDecision::deliver();
    const DartId out = arrived_over == graph::kInvalidDart
                           ? net.graph().out_darts(at)[0]
                           : graph::reverse(arrived_over);
    return ForwardingDecision::forward(out);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "bouncer"; }

  std::size_t calls = 0;
};

TEST(RoutePacket, TtlGuardsAgainstLoops) {
  const auto g = graph::ring(4);
  Network net(g);
  Bouncer proto;  // ping-pongs between the first two nodes forever
  const auto trace = route_packet(net, proto, 0, 2, 8);
  EXPECT_FALSE(trace.delivered());
  EXPECT_EQ(trace.drop_reason, DropReason::kTtlExpired);
  EXPECT_EQ(trace.hops, 8U);

  // The walk repeats its state from the third hop on, so a thousand times
  // the TTL takes the ping-pong from the walk log instead of deciding it:
  // 8000 hops cost fewer decisions than 8 hops plus 8.
  Bouncer long_proto;
  const auto long_trace = route_packet(net, long_proto, 0, 2, 8000);
  EXPECT_EQ(long_trace.drop_reason, DropReason::kTtlExpired);
  EXPECT_EQ(long_trace.hops, 8000U);
  EXPECT_DOUBLE_EQ(long_trace.cost, 8000.0);
  ASSERT_EQ(long_trace.nodes.size(), 8001U);
  const NodeId bounce = long_trace.nodes[1];
  EXPECT_NE(bounce, 0U);
  for (std::size_t i = 0; i < long_trace.nodes.size(); ++i) {
    ASSERT_EQ(long_trace.nodes[i], i % 2 == 0 ? 0U : bounce) << "hop " << i;
  }
  EXPECT_EQ(long_trace.final_packet.ttl, 0U);
  EXPECT_LT(long_proto.calls, proto.calls + 8);
}

// Breaks the decision contract: its internal state changes its decisions.
// It bounces for its first `switch_at` decisions, then circles the ring.
class Drifter final : public ForwardingProtocol {
 public:
  explicit Drifter(std::size_t switch_at) : switch_at_(switch_at) {}

  ForwardingDecision forward(const Network& net, NodeId at, DartId arrived_over,
                             Packet& packet) override {
    if (at == packet.destination) return ForwardingDecision::deliver();
    if (arrived_over == graph::kInvalidDart) {
      ++calls_;
      return ForwardingDecision::forward(net.graph().out_darts(at)[0]);
    }
    if (++calls_ <= switch_at_) {
      return ForwardingDecision::forward(graph::reverse(arrived_over));
    }
    for (DartId d : net.graph().out_darts(at)) {
      if (d != graph::reverse(arrived_over)) return ForwardingDecision::forward(d);
    }
    return ForwardingDecision::drop(DropReason::kNoRoute);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "drifter"; }

 private:
  std::size_t switch_at_;
  std::size_t calls_ = 0;
};

TEST(RoutePacket, DecisionOutsideTheContractIsCaught) {
  // A triangle plus an isolated destination.  While the drifter bounces, its
  // state repeats.  When it turns inside the period run() decides once more
  // on returning to a logged state, a decision differs from the logged one,
  // and run() throws rather than replay a period the protocol no longer
  // follows.  (A later turn is not caught: the check covers that one
  // period.)
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  Network net(g);
  std::size_t caught = 0;
  for (std::size_t switch_at = 1; switch_at <= 64; ++switch_at) {
    Drifter proto(switch_at);
    try {
      (void)route_packet(net, proto, 0, 3);
    } catch (const std::logic_error&) {
      ++caught;
    }
  }
  EXPECT_GE(caught, 1U);
}

TEST(RoutePacket, ProtocolViolationThrows) {
  const auto g = graph::ring(3);
  Network net(g);
  net.fail_link(0);
  LawBreaker proto;
  // Node 0's first out-dart is over edge 0, which is down.
  EXPECT_THROW((void)route_packet(net, proto, 0, 1), std::logic_error);
}

TEST(RoutePacket, EndpointValidation) {
  const auto g = graph::ring(3);
  Network net(g);
  HotPotato proto;
  EXPECT_THROW((void)route_packet(net, proto, 0, 99), std::out_of_range);
  EXPECT_THROW((void)route_packet(net, proto, 99, 0), std::out_of_range);
}

TEST(DefaultTtl, ScalesWithEdges) {
  const auto small = graph::ring(3);
  const auto large = graph::complete(10);
  EXPECT_LT(default_ttl(small), default_ttl(large));
  EXPECT_GE(default_ttl(small), 4 * small.edge_count());
}

}  // namespace
}  // namespace pr::net
