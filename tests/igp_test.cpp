// Tests for the event-driven link-state IGP convergence model.
#include "route/igp.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/pr_protocol.hpp"
#include "embed/embedder.hpp"
#include "graph/generators.hpp"
#include "net/event_sim.hpp"
#include "topo/topologies.hpp"

namespace pr::route {
namespace {

using graph::EdgeId;
using graph::NodeId;

struct IgpFixture {
  explicit IgpFixture(graph::Graph graph, LinkStateIgp::Timings timings = {})
      : g(std::move(graph)), network(g), igp(sim, network, timings) {}

  void fail(EdgeId e) {
    network.fail_link(e);
    igp.on_link_failure(e);
  }

  graph::Graph g;
  net::Network network;
  net::Simulator sim;
  LinkStateIgp igp;
};

TEST(LinkStateIgpTest, StartsConvergedOnPristineTopology) {
  IgpFixture fx(topo::abilene());
  EXPECT_TRUE(fx.igp.fully_converged());
  EXPECT_EQ(fx.igp.lsa_messages(), 0U);
  // All-pairs delivery at optimal cost before any failure.
  const RoutingDb truth(fx.g);
  for (NodeId s = 0; s < fx.g.node_count(); ++s) {
    for (NodeId t = 0; t < fx.g.node_count(); ++t) {
      if (s == t) continue;
      const auto trace = net::route_packet(fx.network, fx.igp.protocol(), s, t);
      ASSERT_TRUE(trace.delivered());
      EXPECT_DOUBLE_EQ(trace.cost, truth.cost(s, t));
    }
  }
}

TEST(LinkStateIgpTest, FloodingReachesEveryRouter) {
  IgpFixture fx(topo::geant());
  fx.sim.at(0.0, [&] { fx.fail(0); });
  fx.sim.run();
  EXPECT_TRUE(fx.igp.fully_converged());
  EXPECT_GT(fx.igp.lsa_messages(), 0U);
  // Each router floods a given LSA at most once over each incident live link.
  EXPECT_LE(fx.igp.lsa_messages(), 2 * fx.g.edge_count());
  EXPECT_GT(fx.igp.spf_runs(), 0U);
  EXPECT_LE(fx.igp.spf_runs(), fx.g.node_count());
}

TEST(LinkStateIgpTest, ConvergenceTimeMatchesTimings) {
  LinkStateIgp::Timings t;
  t.detection_delay = 0.05;
  t.lsa_processing = 0.001;
  t.spf_delay = 0.1;
  IgpFixture fx(topo::abilene(), t);
  fx.sim.at(0.0, [&] { fx.fail(0); });
  fx.sim.run();
  // Lower bound: detection + spf for the adjacent routers; upper bound:
  // detection + (diameter hops) * (1ms link delay + processing) + spf.
  EXPECT_GE(fx.igp.last_table_update(), 0.05 + 0.1);
  EXPECT_LE(fx.igp.last_table_update(),
            0.05 + 10 * (0.001 + 0.001) + 0.1 + 1e-9);
}

TEST(LinkStateIgpTest, PreConvergencePacketsDropPostConvergenceDeliver) {
  IgpFixture fx(topo::abilene());
  const auto denver = *fx.g.find_node("Denver");
  const auto kc = *fx.g.find_node("KansasCity");
  const auto e = *fx.g.find_edge(denver, kc);
  fx.fail(e);  // immediately: detection/flooding unfold when the sim runs

  // Before the simulator runs, Denver's table is stale: drop at the failure.
  const auto pre = net::route_packet(fx.network, fx.igp.protocol(), denver, kc);
  EXPECT_FALSE(pre.delivered());
  EXPECT_EQ(pre.drop_reason, net::DropReason::kPolicy);

  fx.sim.run();
  ASSERT_TRUE(fx.igp.fully_converged());
  const RoutingDb truth(fx.g, &fx.network.failed_links());
  for (NodeId s = 0; s < fx.g.node_count(); ++s) {
    for (NodeId t2 = 0; t2 < fx.g.node_count(); ++t2) {
      if (s == t2) continue;
      const auto trace = net::route_packet(fx.network, fx.igp.protocol(), s, t2);
      ASSERT_TRUE(trace.delivered());
      EXPECT_DOUBLE_EQ(trace.cost, truth.cost(s, t2));
    }
  }
}

TEST(LinkStateIgpTest, SpfThrottleCoalescesNearbyFailures) {
  IgpFixture fx(topo::geant());
  // Two failures 1 ms apart: every router learns both within its spf_delay
  // window, so it recomputes once, not twice.
  fx.sim.at(0.0, [&] { fx.fail(0); });
  fx.sim.at(0.001, [&] { fx.fail(5); });
  fx.sim.run();
  EXPECT_TRUE(fx.igp.fully_converged());
  EXPECT_LE(fx.igp.spf_runs(), fx.g.node_count());
}

TEST(LinkStateIgpTest, WellSeparatedFailuresRecomputeTwice) {
  IgpFixture fx(topo::abilene());
  fx.sim.at(0.0, [&] { fx.fail(0); });
  fx.sim.at(10.0, [&] { fx.fail(5); });
  fx.sim.run();
  EXPECT_TRUE(fx.igp.fully_converged());
  EXPECT_GT(fx.igp.spf_runs(), fx.g.node_count());
  EXPECT_LE(fx.igp.spf_runs(), 2 * fx.g.node_count());
}

TEST(LinkStateIgpTest, ConvergedPerRouterProgresses) {
  LinkStateIgp::Timings t;
  t.detection_delay = 0.05;
  IgpFixture fx(topo::abilene(), t);
  const auto seattle = *fx.g.find_node("Seattle");
  const auto washington = *fx.g.find_node("Washington");
  const auto e = *fx.g.find_edge(seattle, *fx.g.find_node("Sunnyvale"));
  fx.sim.at(0.0, [&] { fx.fail(e); });
  // Just after detection + spf at the near end, Seattle has converged while
  // the far coast may still be waiting on flooding + its own SPF timer.
  fx.sim.run(0.152);
  EXPECT_TRUE(fx.igp.converged(seattle));
  EXPECT_FALSE(fx.igp.converged(washington));
  fx.sim.run();
  EXPECT_TRUE(fx.igp.converged(washington));
}

TEST(LinkStateIgpTest, LsaFloodAvoidsFailedLinks) {
  // Fail a bridge-ish pair so flooding must route around: ring of 6, fail one
  // link; the LSA still reaches the node across the failed link the long way.
  IgpFixture fx(graph::ring(6));
  fx.sim.at(0.0, [&] { fx.fail(0); });  // edge 0 connects nodes 0 and 1
  fx.sim.run();
  EXPECT_TRUE(fx.igp.fully_converged());
}

TEST(LinkStateIgpTest, TransientMicroLoopFormsAndResolves) {
  // The classic convergence pathology the flooding model must reproduce:
  // after A updates but before B does, A forwards via B while B still
  // forwards via A.  Weighted 4-ring A-B-C-D (A-D=1, A-B=1, B-C=1, C-D=4),
  // destination D, fail A-D:
  //   A detects at 50 ms, installs A->B->C->D at 150 ms;
  //   B hears the LSA ~52 ms, installs B->C->D at ~152 ms.
  // A packet leaving A in the (150, 152) ms window ping-pongs A-B until B's
  // FIB update lands, then exits -- delivered, but with extra hops.
  graph::Graph g;
  const auto a = g.add_node("A");
  const auto b = g.add_node("B");
  const auto c = g.add_node("C");
  const auto d = g.add_node("D");
  g.add_edge(a, d, 1);
  g.add_edge(a, b, 1);
  g.add_edge(b, c, 1);
  g.add_edge(c, d, 4);

  net::Network network(g);
  net::Simulator sim;
  LinkStateIgp igp(sim, network);

  sim.at(0.0, [&] {
    network.fail_link(*g.find_edge(a, d));
    igp.on_link_failure(*g.find_edge(a, d));
  });

  bool checked = false;
  net::launch_packet(sim, network, igp.protocol(), a, d, /*start=*/0.1505,
                     [&](const net::PathTrace& trace) {
                       checked = true;
                       ASSERT_TRUE(trace.delivered());
                       // Converged path is A>B>C>D (3 hops); the micro-loop
                       // added at least one A-B round trip.
                       EXPECT_GT(trace.hops, 3U);
                       ASSERT_GE(trace.nodes.size(), 4U);
                       EXPECT_EQ(trace.nodes[0], a);
                       EXPECT_EQ(trace.nodes[1], b);
                       EXPECT_EQ(trace.nodes[2], a) << "expected the B->A bounce";
                     });
  sim.run();
  EXPECT_TRUE(checked);

  // Same scenario under Packet Re-cycling: no window, no loop, immediate
  // repair at the shortest surviving cost.
  const auto emb = embed::embed(g);
  const RoutingDb routes(g);
  const core::CycleFollowingTable cycles(emb.rotation);
  core::PacketRecycling pr(routes, cycles);
  const auto trace = net::route_packet(network, pr, a, d);
  ASSERT_TRUE(trace.delivered());
  EXPECT_EQ(trace.hops, 3U);
}

TEST(LinkStateIgpTest, EveryRouterForwardsOnItsOwnTablesMidConvergence) {
  // Two failures a second apart on GEANT.  While the second converges, each
  // router must forward on exactly one of two table sets: the converged
  // tables once converged(v) holds, the tables for the first failure alone
  // until then -- whatever the other routers have installed meanwhile.
  IgpFixture fx(topo::geant());
  const std::size_t n = fx.g.node_count();
  fx.sim.at(0.0, [&] { fx.fail(0); });
  fx.sim.at(1.0, [&] { fx.fail(7); });
  fx.sim.run(0.996);
  ASSERT_TRUE(fx.igp.fully_converged());
  fx.sim.run(1.0);  // the second failure lands; no router knows of it yet

  graph::EdgeSet first_only(fx.g.edge_count());
  first_only.insert(0);
  const RoutingDb stale(fx.g, &first_only);
  const RoutingDb converged_tables(fx.g, &fx.network.failed_links());

  bool mixed_step = false;
  for (int step = 0; step <= 100; ++step) {
    fx.sim.run(1.0 + 0.004 * step);
    bool any_converged = false;
    bool any_stale = false;
    for (NodeId v = 0; v < n; ++v) {
      const bool converged = fx.igp.converged(v);
      (converged ? any_converged : any_stale) = true;
      const RoutingDb& want = converged ? converged_tables : stale;
      for (NodeId t = 0; t < n; ++t) {
        net::Packet packet;
        packet.destination = t;
        const auto got =
            fx.igp.protocol().forward(fx.network, v, graph::kInvalidDart, packet);
        auto expected = net::ForwardingDecision::deliver();
        if (v != t) {
          const graph::DartId d = want.next_dart(v, t);
          if (d == graph::kInvalidDart) {
            expected = net::ForwardingDecision::drop(net::DropReason::kNoRoute);
          } else if (!fx.network.dart_usable(d)) {
            expected = net::ForwardingDecision::drop(net::DropReason::kPolicy);
          } else {
            expected = net::ForwardingDecision::forward(d);
          }
        }
        ASSERT_EQ(got.action, expected.action)
            << "step " << step << " router " << v << " dest " << t;
        ASSERT_EQ(got.out_dart, expected.out_dart)
            << "step " << step << " router " << v << " dest " << t;
        ASSERT_EQ(got.reason, expected.reason)
            << "step " << step << " router " << v << " dest " << t;
      }
    }
    mixed_step = mixed_step || (any_converged && any_stale);
  }
  EXPECT_TRUE(mixed_step) << "no step caught the second failure mid-convergence";
  EXPECT_TRUE(fx.igp.fully_converged());
}

TEST(LinkStateIgpTest, MutatedGraphThrowsOnRecompute) {
  // The FIB is sized for the graph the IGP was built on; a recompute after
  // the graph changed must fail loudly instead of installing rows from
  // tables of a different graph.
  IgpFixture fx(topo::geant());
  fx.g.set_edge_weight(3, 2.0);  // bumps structure_id()
  fx.sim.at(0.0, [&] { fx.fail(0); });
  EXPECT_THROW(fx.sim.run(), std::logic_error);
}

TEST(LinkStateIgpTest, PartitionedRoutersCannotConverge) {
  // Cut both links of node 0 (ring of 3 leaves node 0 isolated): it can
  // never learn about the far failure it cannot see.
  IgpFixture fx(graph::ring(4));
  const auto e01 = *fx.g.find_edge(0, 1);
  const auto e03 = *fx.g.find_edge(0, 3);
  const auto e12 = *fx.g.find_edge(1, 2);
  fx.sim.at(0.0, [&] {
    fx.fail(e01);
    fx.fail(e03);
  });
  fx.sim.at(1.0, [&] { fx.fail(e12); });
  fx.sim.run();
  EXPECT_FALSE(fx.igp.converged(0)) << "isolated router cannot learn remote LSAs";
  EXPECT_TRUE(fx.igp.converged(2));
}

}  // namespace
}  // namespace pr::route
