// Tests for Section-7 deployment features: traffic-class-scoped PR and
// shared-risk link groups.
#include <gtest/gtest.h>

#include "analysis/protocols.hpp"
#include "analysis/stretch.hpp"
#include "core/policy.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "net/failure_model.hpp"
#include "topo/topologies.hpp"

namespace pr::core {
namespace {

using graph::NodeId;

TEST(TrafficClassPolicy, ProtectAndUnprotect) {
  TrafficClassPolicy policy{5, 6};
  EXPECT_TRUE(policy.protects(5));
  EXPECT_TRUE(policy.protects(6));
  EXPECT_FALSE(policy.protects(0));
  EXPECT_EQ(policy.protected_count(), 2U);
  policy.unprotect(5);
  EXPECT_FALSE(policy.protects(5));
  policy.protect(0);
  EXPECT_TRUE(policy.protects(0));
}

TEST(TrafficClassPolicy, AllCoversEveryClass) {
  const auto policy = TrafficClassPolicy::all();
  for (std::uint8_t c = 0; c < kTrafficClasses; ++c) EXPECT_TRUE(policy.protects(c));
  EXPECT_EQ(policy.protected_count(), kTrafficClasses);
}

TEST(TrafficClassPolicy, OutOfRangeClassRejected) {
  TrafficClassPolicy policy;
  EXPECT_THROW(policy.protect(8), std::invalid_argument);
  EXPECT_THROW((void)policy.protects(200), std::invalid_argument);
}

class PolicyGating : public ::testing::Test {
 protected:
  PolicyGating()
      : g_(topo::abilene()),
        suite_(g_),
        gated_(suite_.routes(), suite_.cycle_table(), TrafficClassPolicy{5}) {}

  graph::Graph g_;
  analysis::ProtocolSuite suite_;
  PolicyGatedRecycling gated_;
};

TEST_F(PolicyGating, ProtectedClassGetsRepair) {
  net::Network network(g_);
  const auto denver = *g_.find_node("Denver");
  const auto kc = *g_.find_node("KansasCity");
  network.fail_link(*g_.find_edge(denver, kc));
  const auto trace =
      net::route_packet(network, gated_, denver, kc, 0, /*traffic_class=*/5);
  EXPECT_TRUE(trace.delivered());
}

TEST_F(PolicyGating, BestEffortClassIsDroppedAtFailure) {
  net::Network network(g_);
  const auto denver = *g_.find_node("Denver");
  const auto kc = *g_.find_node("KansasCity");
  network.fail_link(*g_.find_edge(denver, kc));
  const auto trace =
      net::route_packet(network, gated_, denver, kc, 0, /*traffic_class=*/0);
  EXPECT_FALSE(trace.delivered());
  EXPECT_EQ(trace.drop_reason, net::DropReason::kNoRoute);
}

TEST_F(PolicyGating, BothClassesForwardNormallyWithoutFailures) {
  net::Network network(g_);
  for (std::uint8_t cls : {0, 5}) {
    const auto trace = net::route_packet(network, gated_, 0, 6, 0, cls);
    ASSERT_TRUE(trace.delivered());
    EXPECT_DOUBLE_EQ(trace.cost, suite_.routes().cost(0, 6));
  }
}

TEST_F(PolicyGating, ProtectedTrafficNeverMarkedOffPath) {
  // Unprotected packets must never leave with a PR mark.
  net::Network network(g_);
  network.fail_link(0);
  for (NodeId s = 0; s < g_.node_count(); ++s) {
    for (NodeId t = 0; t < g_.node_count(); ++t) {
      if (s == t) continue;
      const auto trace = net::route_packet(network, gated_, s, t, 0, 0);
      EXPECT_FALSE(trace.final_packet.pr_bit);
    }
  }
}

TEST(Srlg, AddAndQueryGroups) {
  const auto g = topo::abilene();
  net::SrlgCatalog catalog(g);
  const auto id = catalog.add_group({0, 1, 2});
  EXPECT_EQ(id, 0U);
  EXPECT_EQ(catalog.group_count(), 1U);
  EXPECT_EQ(catalog.members(0).size(), 3U);
  const auto scenario = catalog.scenario(0);
  EXPECT_TRUE(scenario.contains(0));
  EXPECT_TRUE(scenario.contains(2));
  EXPECT_FALSE(scenario.contains(3));
}

TEST(Srlg, Validation) {
  const auto g = topo::abilene();
  net::SrlgCatalog catalog(g);
  EXPECT_THROW((void)catalog.add_group({}), std::invalid_argument);
  EXPECT_THROW((void)catalog.add_group({0, 0}), std::invalid_argument);
  EXPECT_THROW((void)catalog.add_group({999}), std::out_of_range);
}

TEST(Srlg, FailAndRestoreGroup) {
  const auto g = topo::abilene();
  net::SrlgCatalog catalog(g);
  catalog.add_group({1, 3, 5});
  net::Network network(g);
  catalog.fail_group(network, 0);
  EXPECT_FALSE(network.link_up(1));
  EXPECT_FALSE(network.link_up(3));
  EXPECT_FALSE(network.link_up(5));
  EXPECT_TRUE(network.link_up(0));
  catalog.restore_group(network, 0);
  EXPECT_EQ(network.failure_count(), 0U);
}

TEST(Srlg, DisconnectingGroupsDetected) {
  const auto g = graph::ring(4);
  net::SrlgCatalog catalog(g);
  catalog.add_group({0});          // single ring edge: survivable
  catalog.add_group({0, 2});       // opposite edges: partitions the ring
  const auto risky = catalog.disconnecting_groups();
  ASSERT_EQ(risky.size(), 1U);
  EXPECT_EQ(risky[0], 1U);
}

TEST(Srlg, RandomCatalogShapes) {
  const auto g = topo::geant();
  graph::Rng rng(55);
  const auto catalog = net::random_srlgs(g, 12, 4, rng);
  EXPECT_EQ(catalog.group_count(), 12U);
  for (std::size_t i = 0; i < catalog.group_count(); ++i) {
    EXPECT_GE(catalog.members(i).size(), 1U);
    EXPECT_LE(catalog.members(i).size(), 4U);
  }
}

TEST(Srlg, PrSurvivesAllNonDisconnectingGroupsOnGeant) {
  // The SRLG version of the paper's guarantee: correlated failures are just
  // failure combinations, so PR must deliver whenever the group loss keeps
  // the graph connected (GEANT is planar -> unconditional guarantee).
  const auto g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  graph::Rng rng(56);
  const auto catalog = net::random_srlgs(g, 20, 4, rng);

  std::vector<graph::EdgeSet> scenarios;
  for (std::size_t i = 0; i < catalog.group_count(); ++i) {
    auto scenario = catalog.scenario(i);
    if (graph::is_connected(g, &scenario)) scenarios.push_back(std::move(scenario));
  }
  ASSERT_GE(scenarios.size(), 10U);

  const auto result = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});
  EXPECT_EQ(result.protocols[0].dropped_reachable, 0U);
  EXPECT_DOUBLE_EQ(result.protocols[0].coverage(), 1.0);
}

}  // namespace
}  // namespace pr::core
