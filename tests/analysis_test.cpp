// Tests for the analysis layer: CCDF, affectedness, the stretch experiment
// runner, coverage classification, and the Figure-2 shape on Abilene.
#include <gtest/gtest.h>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "analysis/stretch.hpp"
#include "graph/generators.hpp"
#include "net/failure_model.hpp"
#include "topo/topologies.hpp"

namespace pr::analysis {
namespace {

using graph::NodeId;

TEST(Ccdf, BasicPoints) {
  const std::vector<double> samples = {1.0, 1.0, 2.0, 3.0};
  const std::vector<double> xs = {0.5, 1.0, 2.0, 3.0, 4.0};
  const auto probs = ccdf(samples, xs);
  ASSERT_EQ(probs.size(), 5U);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);    // all samples > 0.5
  EXPECT_DOUBLE_EQ(probs[1], 0.5);    // 2 of 4 strictly exceed 1
  EXPECT_DOUBLE_EQ(probs[2], 0.25);
  EXPECT_DOUBLE_EQ(probs[3], 0.0);
  EXPECT_DOUBLE_EQ(probs[4], 0.0);
}

TEST(Ccdf, EmptySamplesGiveZeros) {
  const std::vector<double> xs = {1.0, 2.0};
  const auto probs = ccdf({}, xs);
  EXPECT_DOUBLE_EQ(probs[0], 0.0);
  EXPECT_DOUBLE_EQ(probs[1], 0.0);
}

TEST(Ccdf, InfinityCountsAtEveryPoint) {
  const std::vector<double> samples = {1.0, std::numeric_limits<double>::infinity()};
  const auto probs = ccdf(samples, std::vector<double>{10.0, 1000.0});
  EXPECT_DOUBLE_EQ(probs[0], 0.5);
  EXPECT_DOUBLE_EQ(probs[1], 0.5);
}

TEST(Ccdf, MonotoneNonIncreasing) {
  const std::vector<double> samples = {1.1, 1.7, 2.0, 2.4, 9.0};
  const auto xs = paper_stretch_axis();
  const auto probs = ccdf(samples, xs);
  for (std::size_t i = 1; i < probs.size(); ++i) EXPECT_LE(probs[i], probs[i - 1]);
}

TEST(PathAffected, DetectsFailuresOnShortestPath) {
  const auto g = topo::abilene();
  const route::RoutingDb routes(g);
  const auto n = [&g](const char* l) { return *g.find_node(l); };
  graph::EdgeSet failures(g.edge_count());
  failures.insert(*g.find_edge(n("Denver"), n("KansasCity")));
  EXPECT_TRUE(path_affected(routes, n("Seattle"), n("KansasCity"), failures));
  EXPECT_FALSE(path_affected(routes, n("Atlanta"), n("Washington"), failures));
  EXPECT_FALSE(path_affected(routes, n("Seattle"), n("Seattle"), failures));
}

TEST(ProtocolSuite, FactoriesProduceWorkingProtocols) {
  const auto g = topo::abilene();
  const ProtocolSuite suite(g);
  net::Network network(g);
  for (const auto& factory :
       {suite.reconvergence(), suite.fcp(), suite.pr(), suite.pr_single_bit(),
        suite.lfa(), suite.spf()}) {
    const auto proto = factory.make(network);
    const auto trace = net::route_packet(network, *proto, 0, 5);
    EXPECT_TRUE(trace.delivered()) << factory.name;
  }
}

TEST(ProtocolSuite, PaperTrioOrder) {
  const auto g = topo::abilene();
  const ProtocolSuite suite(g);
  const auto trio = suite.paper_trio();
  ASSERT_EQ(trio.size(), 3U);
  EXPECT_EQ(trio[0].name, "Re-convergence");
  EXPECT_EQ(trio[1].name, "Failure-Carrying Packets");
  EXPECT_EQ(trio[2].name, "Packet Re-cycling");
}

TEST(StretchExperiment, AbileneSingleFailuresFigure2aShape) {
  // The qualitative content of Figure 2(a): under single failures all three
  // schemes deliver everything; reconvergence has the least stretch, FCP sits
  // between, PR pays the most.
  const auto g = topo::abilene();
  const ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);
  const auto result = run_stretch_experiment(g, scenarios, suite.paper_trio());

  ASSERT_EQ(result.protocols.size(), 3U);
  const auto& reconv = result.protocols[0];
  const auto& fcp = result.protocols[1];
  const auto& pr = result.protocols[2];

  EXPECT_GT(result.affected_pairs, 0U);
  EXPECT_EQ(reconv.dropped(), 0U);
  EXPECT_EQ(fcp.dropped(), 0U);
  EXPECT_EQ(pr.dropped(), 0U);

  EXPECT_LE(reconv.mean_finite_stretch(), fcp.mean_finite_stretch() + 1e-12);
  EXPECT_LE(fcp.mean_finite_stretch(), pr.mean_finite_stretch() + 1e-12);
  EXPECT_GE(reconv.mean_finite_stretch(), 1.0);

  // Every protocol's stretch is >= 1 by definition.
  for (const auto& p : result.protocols) {
    for (double s : p.stretches) EXPECT_GE(s, 1.0 - 1e-12);
  }
}

TEST(StretchExperiment, ReconvergenceCcdfDominatedByPr) {
  // Pointwise on the Figure-2 axis, P(stretch > x) for reconvergence can
  // never exceed PR's (reconvergence is optimal per pair).
  const auto g = topo::abilene();
  const ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);
  const auto result = run_stretch_experiment(g, scenarios, suite.paper_trio());
  const auto xs = paper_stretch_axis();
  const auto reconv = ccdf(result.protocols[0].stretches, xs);
  const auto pr = ccdf(result.protocols[2].stretches, xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_LE(reconv[i], pr[i] + 1e-12) << "x=" << xs[i];
  }
}

TEST(StretchExperiment, RequiresProtocols) {
  const auto g = topo::abilene();
  const auto scenarios = net::all_single_failures(g);
  EXPECT_THROW((void)run_stretch_experiment(g, scenarios, {}), std::invalid_argument);
}

TEST(Coverage, ClassifiesPartitionsCorrectly) {
  // Two scenarios on a 4-ring: a recoverable single failure (SPF drops what
  // PR saves) and a partitioning double failure (nobody can deliver across).
  const auto g = graph::ring(4);
  const ProtocolSuite suite(g);
  std::vector<graph::EdgeSet> scenarios;
  {
    graph::EdgeSet single(g.edge_count());
    single.insert(*g.find_edge(0, 1));
    scenarios.push_back(std::move(single));
  }
  {
    graph::EdgeSet cut(g.edge_count());
    cut.insert(*g.find_edge(0, 1));
    cut.insert(*g.find_edge(2, 3));
    scenarios.push_back(std::move(cut));
  }

  const auto result = run_stretch_experiment(g, scenarios, {suite.pr(), suite.spf()});
  const auto& pr = result.protocols[0];
  const auto& spf = result.protocols[1];
  EXPECT_EQ(pr.dropped_reachable, 0U);
  EXPECT_GT(pr.dropped_partitioned, 0U);
  EXPECT_DOUBLE_EQ(pr.coverage(), 1.0);
  EXPECT_LT(spf.coverage(), 1.0);  // plain SPF drops recoverable packets
  EXPECT_EQ(pr.dropped_partitioned, spf.dropped_partitioned);
}

TEST(Coverage, PrDdHasFullCoverageOnAbileneDoubleFailures) {
  const auto g = topo::abilene();
  const ProtocolSuite suite(g);
  graph::Rng rng(5);
  const auto scenarios = net::sample_any_failures(g, 2, 40, rng);
  const auto result = run_stretch_experiment(
      g, scenarios, {suite.pr(), suite.pr_single_bit(), suite.lfa()});
  EXPECT_EQ(result.protocols[0].dropped_reachable, 0U);  // the paper's claim
  EXPECT_DOUBLE_EQ(result.protocols[0].coverage(), 1.0);
  // LFA cannot reach full coverage on a sparse backbone.
  EXPECT_LT(result.protocols[2].coverage(), 1.0);
}

TEST(Report, FormatsTables) {
  const auto xs = paper_stretch_axis();
  EXPECT_EQ(xs.size(), 15U);
  const auto table =
      format_ccdf_table(xs, {{"A", std::vector<double>(15, 0.5)},
                             {"B", std::vector<double>(15, 0.25)}});
  EXPECT_NE(table.find("stretch"), std::string::npos);
  EXPECT_NE(table.find("0.5000"), std::string::npos);
  EXPECT_NE(table.find("0.2500"), std::string::npos);
}

TEST(Report, StretchAndCoverageRendering) {
  const auto g = graph::ring(4);
  const ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);
  const auto result = run_stretch_experiment(g, scenarios, {suite.pr()});
  const auto text = format_stretch_report(result, paper_stretch_axis());
  EXPECT_NE(text.find("Packet Re-cycling"), std::string::npos);
  EXPECT_NE(text.find("delivered="), std::string::npos);

  const auto cov_text = format_coverage_report(result);
  EXPECT_NE(cov_text.find("coverage"), std::string::npos);
}

}  // namespace
}  // namespace pr::analysis
