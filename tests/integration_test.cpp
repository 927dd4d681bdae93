// End-to-end integration: the full experiment pipeline on every bundled
// topology, asserting the cross-module invariants the benches rely on.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "analysis/stretch.hpp"
#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "net/header_codec.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

namespace pr {
namespace {

using analysis::ProtocolSuite;
using graph::Graph;

struct TopologyCase {
  const char* name;
  Graph (*make)();
  bool planar;  ///< planar topologies enjoy the unconditional guarantee
};

Graph make_figure1() { return topo::figure1(); }
Graph make_abilene() { return topo::abilene(); }
Graph make_teleglobe() { return topo::teleglobe(); }
Graph make_geant() { return topo::geant(); }

class TopologyPipeline : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(TopologyPipeline, SuiteInvariants) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);

  // Embedding quality: PR-safe always; genus 0 exactly for planar inputs.
  EXPECT_TRUE(suite.embedding().supports_pr());
  if (param.planar) {
    EXPECT_EQ(suite.embedding().genus, 0);
  } else {
    EXPECT_GT(suite.embedding().genus, 0);
  }

  // Euler consistency.
  const long v = static_cast<long>(g.node_count());
  const long e = static_cast<long>(g.edge_count());
  const long f = static_cast<long>(suite.embedding().faces.face_count());
  EXPECT_EQ(v - e + f, 2 - 2 * suite.embedding().genus);

  // Header budget: every bundled topology fits the DSCP pool-2 proposal.
  const auto layout =
      net::PrHeaderLayout::for_hop_diameter(suite.routes().max_discriminator());
  EXPECT_LE(layout.total_bits(), 4U);
}

TEST_P(TopologyPipeline, SingleFailureFigureShape) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);
  const auto result = analysis::run_stretch_experiment(g, scenarios, suite.paper_trio());

  ASSERT_EQ(result.protocols.size(), 3U);
  for (const auto& p : result.protocols) {
    EXPECT_EQ(p.dropped(), 0U) << p.name;
    for (double s : p.stretches) EXPECT_GE(s, 1.0 - 1e-12);
  }
  // Protocol ordering, mean and pointwise CCDF.
  EXPECT_LE(result.protocols[0].mean_finite_stretch(),
            result.protocols[1].mean_finite_stretch() + 1e-12);
  EXPECT_LE(result.protocols[1].mean_finite_stretch(),
            result.protocols[2].mean_finite_stretch() + 1e-12);
  const auto xs = analysis::paper_stretch_axis();
  const auto reconv = analysis::ccdf(result.protocols[0].stretches, xs);
  const auto pr_curve = analysis::ccdf(result.protocols[2].stretches, xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_LE(reconv[i], pr_curve[i] + 1e-12);
    if (i > 0) {
      EXPECT_LE(pr_curve[i], pr_curve[i - 1] + 1e-12) << "CCDF must not increase";
    }
  }
}

TEST_P(TopologyPipeline, ExperimentsAreDeterministic) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);
  const auto a = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});
  const auto b = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});
  ASSERT_EQ(a.protocols[0].stretches.size(), b.protocols[0].stretches.size());
  for (std::size_t i = 0; i < a.protocols[0].stretches.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.protocols[0].stretches[i], b.protocols[0].stretches[i]);
  }
}

TEST_P(TopologyPipeline, CoverageClassificationConsistent) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);
  graph::Rng rng(123);
  const auto scenarios = net::sample_any_failures(g, 3, 25, rng);
  const auto result = analysis::run_stretch_experiment(
      g, scenarios, {suite.pr(), suite.fcp(), suite.spf()});

  const auto& pr_cov = result.protocols[0];
  const auto& fcp_cov = result.protocols[1];
  const auto& spf_cov = result.protocols[2];
  // Totals agree across protocols (same pair population).
  EXPECT_EQ(pr_cov.total(), fcp_cov.total());
  EXPECT_EQ(pr_cov.total(), spf_cov.total());
  // Partition counts are protocol-independent facts of the scenario.
  EXPECT_EQ(pr_cov.dropped_partitioned, fcp_cov.dropped_partitioned);
  EXPECT_EQ(pr_cov.dropped_partitioned, spf_cov.dropped_partitioned);
  // FCP has full coverage everywhere; PR too on planar topologies.
  EXPECT_EQ(fcp_cov.dropped_reachable, 0U);
  if (param.planar) {
    EXPECT_EQ(pr_cov.dropped_reachable, 0U);
  }
  // SPF never exceeds PR.
  EXPECT_LE(spf_cov.delivered, pr_cov.delivered);
}

INSTANTIATE_TEST_SUITE_P(
    Bundled, TopologyPipeline,
    ::testing::Values(TopologyCase{"figure1", make_figure1, true},
                      TopologyCase{"abilene", make_abilene, true},
                      TopologyCase{"teleglobe", make_teleglobe, false},
                      TopologyCase{"geant", make_geant, true}),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      return std::string(info.param.name);
    });

TEST(Integration, StretchExperimentMatchesManualComputation) {
  // Cross-check the sweep pair by pair against hand-rolled route_packet
  // walks: every dual and every node failure of Teleglobe (1,015 scenarios,
  // partitions included) under six protocols.  Each affected pair's sample
  // (cost over pristine cost, or +inf) and outcome class (from the residual
  // components) must match bit for bit, in canonical order.
  const Graph g = topo::teleglobe();
  const ProtocolSuite suite(g);
  auto scenarios = net::enumerate_failures(g, 2);
  for (auto& s : net::all_node_failures(g)) scenarios.push_back(std::move(s));
  const std::vector<analysis::NamedFactory> protocols = {
      suite.pr(),  suite.pr_single_bit(), suite.lfa(),
      suite.fcp(), suite.spf(),           suite.reconvergence()};

  std::vector<analysis::ProtocolStretch> want(protocols.size());
  std::size_t affected_pairs = 0;
  for (const auto& failures : scenarios) {
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);
    const auto components = graph::connected_components(g, &failures);
    std::vector<std::unique_ptr<net::ForwardingProtocol>> instances;
    for (const auto& factory : protocols) instances.push_back(factory.make(network));

    for (graph::NodeId s = 0; s < g.node_count(); ++s) {
      for (graph::NodeId t = 0; t < g.node_count(); ++t) {
        if (s == t || !analysis::path_affected(suite.routes(), s, t, failures)) {
          continue;
        }
        ++affected_pairs;
        for (std::size_t i = 0; i < protocols.size(); ++i) {
          const auto trace = net::route_packet(network, *instances[i], s, t);
          auto& w = want[i];
          if (trace.delivered()) {
            ++w.delivered;
            w.stretches.push_back(trace.cost / suite.routes().cost(s, t));
          } else {
            ++(components[s] == components[t] ? w.dropped_reachable
                                              : w.dropped_partitioned);
            w.stretches.push_back(std::numeric_limits<double>::infinity());
          }
        }
      }
    }
  }
  // Both drop classes are exercised: Teleglobe's genus-1 embedding loses
  // reachable pairs under some dual failures, and node failures cut pairs off.
  EXPECT_GT(want[0].dropped_reachable, 0U);
  EXPECT_GT(want[0].dropped_partitioned, 0U);

  const auto expect_matches = [&](const analysis::StretchExperimentResult& got,
                                  const char* driver) {
    EXPECT_EQ(got.scenarios, scenarios.size()) << driver;
    EXPECT_EQ(got.affected_pairs, affected_pairs) << driver;
    ASSERT_EQ(got.protocols.size(), protocols.size()) << driver;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const auto& p = got.protocols[i];
      EXPECT_EQ(p.name, protocols[i].name);
      EXPECT_EQ(p.delivered, want[i].delivered) << p.name << ", " << driver;
      EXPECT_EQ(p.dropped_reachable, want[i].dropped_reachable)
          << p.name << ", " << driver;
      EXPECT_EQ(p.dropped_partitioned, want[i].dropped_partitioned)
          << p.name << ", " << driver;
      EXPECT_EQ(p.stretches, want[i].stretches) << p.name << ", " << driver;
    }
  };
  expect_matches(analysis::run_stretch_experiment(g, scenarios, protocols), "serial");
  sim::SweepExecutor executor(2);
  expect_matches(analysis::run_stretch_experiment(g, scenarios, protocols, executor),
                 "2 threads");
}

TEST(Integration, AllSuiteProtocolsAgreeOnHealthyNetwork) {
  // With no failures every protocol must produce identical (optimal) costs.
  const Graph g = topo::geant();
  const ProtocolSuite suite(g);
  net::Network network(g);
  for (graph::NodeId s = 0; s < g.node_count(); s += 5) {
    for (graph::NodeId t = 0; t < g.node_count(); t += 3) {
      if (s == t) continue;
      const double expected = suite.routes().cost(s, t);
      for (const auto& factory :
           {suite.pr(), suite.pr_single_bit(), suite.fcp(), suite.lfa(), suite.spf(),
            suite.reconvergence()}) {
        auto proto = factory.make(network);
        const auto trace = net::route_packet(network, *proto, s, t);
        ASSERT_TRUE(trace.delivered()) << factory.name;
        EXPECT_DOUBLE_EQ(trace.cost, expected) << factory.name;
      }
    }
  }
}

}  // namespace
}  // namespace pr
