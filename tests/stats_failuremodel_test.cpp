// Tests for the summary-statistics helper and the extended failure models
// (node outages).
#include <gtest/gtest.h>

#include <limits>

#include "analysis/protocols.hpp"
#include "analysis/stats.hpp"
#include "analysis/stretch.hpp"
#include "graph/generators.hpp"
#include "net/failure_model.hpp"
#include "topo/topologies.hpp"

namespace pr::analysis {
namespace {

TEST(Summary, BasicMoments) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0};
  const auto s = summarize(samples);
  EXPECT_EQ(s.count, 4U);
  EXPECT_EQ(s.infinite, 0U);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Summary, InfiniteEntriesCountedSeparately) {
  const std::vector<double> samples = {1.0, std::numeric_limits<double>::infinity(),
                                       3.0};
  const auto s = summarize(samples);
  EXPECT_EQ(s.count, 2U);
  EXPECT_EQ(s.infinite, 1U);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

TEST(Summary, EmptyAndAllInfinite) {
  EXPECT_EQ(summarize({}).count, 0U);
  const std::vector<double> infs = {std::numeric_limits<double>::infinity()};
  const auto s = summarize(infs);
  EXPECT_EQ(s.count, 0U);
  EXPECT_EQ(s.infinite, 1U);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, PercentilesNearestRank) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const auto s = summarize(samples);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(Summary, SingleSample) {
  const std::vector<double> one = {7.5};
  const auto s = summarize(one);
  EXPECT_DOUBLE_EQ(s.p50, 7.5);
  EXPECT_DOUBLE_EQ(s.p99, 7.5);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
}

TEST(Summary, Rendering) {
  const std::vector<double> samples = {1.0, 2.0,
                                       std::numeric_limits<double>::infinity()};
  const auto text = to_string(summarize(samples));
  EXPECT_NE(text.find("mean 1.50"), std::string::npos);
  EXPECT_NE(text.find("+1 inf"), std::string::npos);
}

TEST(NodeFailures, OneScenarioPerConnectedNode) {
  const auto g = topo::abilene();
  const auto scenarios = net::all_node_failures(g);
  EXPECT_EQ(scenarios.size(), g.node_count());  // no isolated nodes in Abilene
  // Seattle has degree 2: its scenario fails exactly those 2 links.
  const auto seattle = *g.find_node("Seattle");
  EXPECT_EQ(scenarios[seattle].size(), g.degree(seattle));
}

TEST(NodeFailures, IsolatedNodesSkipped) {
  graph::Graph g(3);
  g.add_edge(0, 1);  // node 2 isolated
  EXPECT_EQ(net::all_node_failures(g).size(), 2U);
}

TEST(NodeFailures, PrSurvivesEveryNodeOutageOnPlanarTopologies) {
  // The title's promise: node failures are covered too.  On Abilene and
  // GEANT (planar, 2-connected except for the dead node's own pairs), every
  // pair not involving the failed node must be delivered.
  for (const auto& g : {topo::abilene(), topo::geant()}) {
    const ProtocolSuite suite(g);
    const auto scenarios = net::all_node_failures(g);
    const auto result = run_stretch_experiment(g, scenarios, {suite.pr()});
    EXPECT_EQ(result.protocols[0].dropped_reachable, 0U);
    EXPECT_DOUBLE_EQ(result.protocols[0].coverage(), 1.0);
  }
}

TEST(NodeFailures, PairsThroughDeadRouterClassifiedPartitioned) {
  const auto g = graph::ring(4);
  const ProtocolSuite suite(g);
  std::vector<graph::EdgeSet> scenarios = net::all_node_failures(g);
  const auto result = run_stretch_experiment(g, scenarios, {suite.pr()});
  // On a 4-ring, killing any node leaves the other three connected: the only
  // unreachable pairs are those with the dead node as source or sink, and
  // those count as partitioned, never as protocol failures.
  EXPECT_EQ(result.protocols[0].dropped_reachable, 0U);
  EXPECT_GT(result.protocols[0].dropped_partitioned, 0U);
}

}  // namespace
}  // namespace pr::analysis
