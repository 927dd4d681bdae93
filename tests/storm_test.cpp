// Tests for the sampled failure-storm stack: run_ordered's canonical-order
// streaming reduction, the storm scenario models over SRLG catalogs, the
// group-grained incidence probe, the shared-scratch disconnecting-group
// report, and run_storm_experiment's two contracts -- bit-identity across
// thread counts and convergence to the exhaustive weighted oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/storm.hpp"
#include "analysis/traffic.hpp"
#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"
#include "net/failure_model.hpp"
#include "net/network.hpp"
#include "net/storm_model.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"
#include "traffic/incidence.hpp"

namespace pr {
namespace {

using analysis::StormExperimentResult;
using analysis::StormSweepConfig;
using graph::EdgeSet;
using graph::Graph;
using net::IndependentOutages;
using net::SrlgCatalog;
using net::StormSample;
using sim::SweepExecutor;
using sim::WorkerContext;

// ---------------------------------------------------------------------------
// SweepExecutor::run_ordered

TEST(RunOrdered, ReducesEveryUnitOnceInCanonicalOrder) {
  constexpr std::size_t kUnits = 500;
  for (const std::size_t threads : {1U, 2U, 8U}) {
    SweepExecutor executor(threads);
    const std::size_t window = executor.default_ordered_window();
    std::vector<std::uint64_t> ring(window, 0);
    std::vector<std::size_t> order;
    std::uint64_t sum = 0;
    executor.run_ordered(
        kUnits,
        [&](std::size_t unit, WorkerContext&) { ring[unit % window] = 3 * unit + 1; },
        [&](std::size_t unit) {
          order.push_back(unit);
          sum += ring[unit % window];
        });

    ASSERT_EQ(order.size(), kUnits) << threads << " threads";
    for (std::size_t i = 0; i < kUnits; ++i) {
      ASSERT_EQ(order[i], i) << threads << " threads";
    }
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < kUnits; ++i) want += 3 * i + 1;
    EXPECT_EQ(sum, want) << threads << " threads";
  }
}

TEST(RunOrdered, PerUnitRngStreamsMatchPlainRun) {
  // run_ordered must reseed the worker Rng per unit exactly like run(): the
  // first draw of unit u depends only on (seed, u).
  constexpr std::size_t kUnits = 64;
  constexpr std::uint64_t kSeed = 0xFEED;
  std::vector<double> from_run(kUnits, 0.0);
  {
    SweepExecutor executor(4);
    executor.run(
        kUnits,
        [&](std::size_t unit, WorkerContext& ctx) { from_run[unit] = ctx.rng().unit(); },
        kSeed);
  }
  for (const std::size_t threads : {1U, 8U}) {
    SweepExecutor executor(threads);
    std::vector<double> slot(executor.default_ordered_window(), 0.0);
    std::vector<double> ordered(kUnits, 0.0);
    executor.run_ordered(
        kUnits,
        [&](std::size_t unit, WorkerContext& ctx) {
          slot[unit % slot.size()] = ctx.rng().unit();
        },
        [&](std::size_t unit) { ordered[unit] = slot[unit % slot.size()]; }, kSeed);
    EXPECT_EQ(ordered, from_run) << threads << " threads";
  }
}

TEST(RunOrdered, UnitExceptionPropagatesAndExecutorSurvives) {
  SweepExecutor executor(4);
  EXPECT_THROW(
      executor.run_ordered(
          100,
          [](std::size_t unit, WorkerContext&) {
            if (unit == 17) throw std::runtime_error("unit 17");
          },
          [](std::size_t) {}),
      std::runtime_error);

  // The pool must come back clean for the next job.
  std::size_t reduced = 0;
  executor.run_ordered(
      50, [](std::size_t, WorkerContext&) {}, [&](std::size_t) { ++reduced; });
  EXPECT_EQ(reduced, 50u);
}

TEST(RunOrdered, ReduceExceptionPropagatesAndExecutorSurvives) {
  SweepExecutor executor(4);
  EXPECT_THROW(
      executor.run_ordered(
          100, [](std::size_t, WorkerContext&) {},
          [](std::size_t unit) {
            if (unit == 5) throw std::runtime_error("reduce 5");
          }),
      std::runtime_error);

  std::size_t reduced = 0;
  executor.run_ordered(
      50, [](std::size_t, WorkerContext&) {}, [&](std::size_t) { ++reduced; });
  EXPECT_EQ(reduced, 50u);
}

// ---------------------------------------------------------------------------
// Storm models

TEST(StormModel, SampleIsCanonicalAndDeterministic) {
  const Graph g = topo::abilene();
  graph::Rng catalog_rng(1);
  const SrlgCatalog catalog = net::random_srlgs(g, 6, 3, catalog_rng);
  const IndependentOutages model = IndependentOutages::uniform(catalog, 0.4);

  StormSample a;
  StormSample b;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    graph::Rng ra(seed);
    graph::Rng rb(seed);
    model.sample(ra, a);
    model.sample(rb, b);
    EXPECT_EQ(a.groups, b.groups) << "seed " << seed;

    // Groups ascending and deduped; failures exactly the member union.
    EXPECT_TRUE(std::is_sorted(a.groups.begin(), a.groups.end()));
    EXPECT_EQ(std::adjacent_find(a.groups.begin(), a.groups.end()), a.groups.end());
    EdgeSet want(g.edge_count());
    for (const std::size_t group : a.groups) {
      for (const graph::EdgeId e : catalog.members(group)) want.insert(e);
    }
    ASSERT_EQ(a.failures.size(), want.size()) << "seed " << seed;
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(a.failures.contains(e), want.contains(e)) << "seed " << seed;
    }
  }
}

TEST(StormModel, DeterministicProbabilitiesForceTheOutcome) {
  const Graph g = topo::abilene();
  SrlgCatalog catalog(g);
  (void)catalog.add_group({0});
  (void)catalog.add_group({1, 2});
  (void)catalog.add_group({3});
  const IndependentOutages model(catalog, {1.0, 0.0, 1.0});

  StormSample sample;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    graph::Rng rng(seed);
    model.sample(rng, sample);
    EXPECT_EQ(sample.groups, (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(sample.failures.size(), 2u);
    EXPECT_TRUE(sample.failures.contains(0));
    EXPECT_TRUE(sample.failures.contains(3));
  }
}

TEST(StormModel, GeographicCutDrawsExactlyOneGroup) {
  const Graph g = topo::abilene();
  const SrlgCatalog catalog = net::geographic_srlgs(g, 1);
  const net::GeographicCut model(catalog);
  StormSample sample;
  graph::Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    model.sample(rng, sample);
    ASSERT_EQ(sample.groups.size(), 1u);
    ASSERT_LT(sample.groups[0], catalog.group_count());
    seen.insert(sample.groups[0]);
  }
  // Uniform over 11 groups: 200 draws hit every group with overwhelming odds.
  EXPECT_EQ(seen.size(), catalog.group_count());
}

TEST(StormModel, CompoundStormDrawsKDistinctGroups) {
  const Graph g = topo::abilene();
  graph::Rng catalog_rng(2);
  const SrlgCatalog catalog = net::random_srlgs(g, 8, 2, catalog_rng);
  EXPECT_THROW(net::CompoundStorm(catalog, 0), std::invalid_argument);
  EXPECT_THROW(net::CompoundStorm(catalog, 9), std::invalid_argument);

  const net::CompoundStorm model(catalog, 3);
  StormSample sample;
  graph::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    model.sample(rng, sample);
    ASSERT_EQ(sample.groups.size(), 3u);
    EXPECT_TRUE(std::is_sorted(sample.groups.begin(), sample.groups.end()));
    EXPECT_EQ(std::adjacent_find(sample.groups.begin(), sample.groups.end()),
              sample.groups.end());
  }
}

TEST(StormModel, GeographicSrlgsRadiusOneAreNodeOutages) {
  // radius 1 bundles exactly the anchor's incident links -- the node-failure
  // scenarios the coverage experiments already enumerate.
  const Graph g = topo::abilene();
  const SrlgCatalog catalog = net::geographic_srlgs(g, 1);
  const auto node_failures = net::all_node_failures(g);
  ASSERT_EQ(catalog.group_count(), node_failures.size());
  for (std::size_t i = 0; i < node_failures.size(); ++i) {
    const EdgeSet bundle = catalog.scenario(i);
    ASSERT_EQ(bundle.size(), node_failures[i].size()) << "anchor " << i;
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(bundle.contains(e), node_failures[i].contains(e)) << "anchor " << i;
    }
  }
}

TEST(StormModel, EnumerateOutageScenariosCoversAllSubsetsExactly) {
  const Graph g = topo::abilene();
  SrlgCatalog catalog(g);
  (void)catalog.add_group({0});
  (void)catalog.add_group({1});
  (void)catalog.add_group({2, 3});
  const IndependentOutages model(catalog, {0.5, 0.25, 0.1});

  const auto scenarios = net::enumerate_outage_scenarios(model);
  ASSERT_EQ(scenarios.size(), 8u);  // 2^3, bitmask order
  EXPECT_TRUE(scenarios[0].groups.empty());
  EXPECT_EQ(scenarios[1].groups, (std::vector<std::size_t>{0}));
  EXPECT_EQ(scenarios[5].groups, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(scenarios[7].groups, (std::vector<std::size_t>{0, 1, 2}));

  double total = 0.0;
  for (const auto& s : scenarios) total += s.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P({0}) = 0.5 * 0.75 * 0.9
  EXPECT_NEAR(scenarios[1].probability, 0.5 * 0.75 * 0.9, 1e-12);

  // The 2^G gate.
  SrlgCatalog big(g);
  for (int i = 0; i < 21; ++i) (void)big.add_group({static_cast<graph::EdgeId>(i % 4)});
  EXPECT_THROW(
      (void)net::enumerate_outage_scenarios(IndependentOutages::uniform(big, 0.1)),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GroupIncidence

TEST(GroupIncidence, MatchesThePerEdgeProbeOnEveryGroupSubset) {
  const Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const traffic::TrafficMatrix demand =
      traffic::gravity_demand(g, 1e5, traffic::GravityMass::kDegree);
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);

  net::Network network(g);
  const auto protocol = suite.spf().make(network);
  traffic::FlowIncidenceIndex index;
  index.build(network, *protocol, flows, demands);

  graph::Rng catalog_rng(3);
  const SrlgCatalog catalog = net::random_srlgs(g, 7, 3, catalog_rng);
  traffic::GroupIncidence groups;
  groups.build(index, catalog);
  ASSERT_TRUE(groups.built());
  EXPECT_EQ(groups.group_count(), catalog.group_count());
  EXPECT_EQ(groups.flow_count(), index.flow_count());

  // Every subset of the catalog: the group-grained probe must collect
  // exactly the flows the per-edge probe finds on the member union.
  const std::size_t group_count = catalog.group_count();
  ASSERT_LE(group_count, 16u);
  std::vector<std::uint8_t> mark_groups;
  std::vector<std::uint32_t> out_groups;
  std::vector<std::uint8_t> mark_edges;
  std::vector<std::uint32_t> out_edges;
  for (std::uint32_t mask = 0; mask < (1U << group_count); ++mask) {
    std::vector<std::size_t> subset;
    EdgeSet failures(g.edge_count());
    for (std::size_t group = 0; group < group_count; ++group) {
      if ((mask >> group) & 1U) {
        subset.push_back(group);
        for (const graph::EdgeId e : catalog.members(group)) failures.insert(e);
      }
    }
    groups.affected_flows(subset, mark_groups, out_groups);
    index.affected_flows(failures, mark_edges, out_edges);
    ASSERT_EQ(out_groups, out_edges) << "mask " << mask;
    ASSERT_EQ(mark_groups, mark_edges) << "mask " << mask;
  }
}

TEST(GroupIncidence, RejectsAnUnbuiltIndex) {
  const Graph g = topo::abilene();
  const SrlgCatalog catalog = net::geographic_srlgs(g, 1);
  traffic::FlowIncidenceIndex index;
  traffic::GroupIncidence groups;
  EXPECT_THROW(groups.build(index, catalog), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SrlgCatalog::disconnecting_groups (shared-scratch rewrite)

TEST(SrlgCatalog, DisconnectingGroupsMatchesNaiveRecomputation) {
  const Graph g = topo::geant();
  graph::Rng rng(11);
  const SrlgCatalog catalog = net::random_srlgs(g, 10, 4, rng);

  std::vector<std::size_t> naive;
  for (std::size_t group = 0; group < catalog.group_count(); ++group) {
    const EdgeSet scenario = catalog.scenario(group);
    if (!graph::is_connected(g, &scenario)) naive.push_back(group);
  }
  EXPECT_EQ(catalog.disconnecting_groups(), naive);

  // Radius-1 geographic bundles always disconnect: they isolate the anchor.
  const SrlgCatalog node_bundles = net::geographic_srlgs(g, 1);
  const auto risky = node_bundles.disconnecting_groups();
  ASSERT_EQ(risky.size(), node_bundles.group_count());
  for (std::size_t i = 0; i < risky.size(); ++i) EXPECT_EQ(risky[i], i);
}

// ---------------------------------------------------------------------------
// run_storm_experiment

struct StormFixture {
  Graph g = topo::abilene();
  analysis::ProtocolSuite suite{g};
  traffic::TrafficMatrix demand =
      traffic::gravity_demand(g, 1e5, traffic::GravityMass::kDegree);
  traffic::CapacityPlan plan = traffic::CapacityPlan::uniform(g, 5e4);
};

void expect_identical(const StormExperimentResult& want,
                      const StormExperimentResult& got) {
  ASSERT_EQ(got.protocols.size(), want.protocols.size());
  for (std::size_t i = 0; i < want.protocols.size(); ++i) {
    EXPECT_TRUE(got.protocols[i] == want.protocols[i]) << want.protocols[i].name;
  }
  EXPECT_TRUE(got == want);
}

TEST(StormSweep, BitIdenticalAcrossThreadCounts) {
  StormFixture f;
  graph::Rng catalog_rng(4);
  const SrlgCatalog catalog = net::random_srlgs(f.g, 6, 3, catalog_rng);
  const IndependentOutages model = IndependentOutages::uniform(catalog, 0.2);
  const std::vector<analysis::NamedFactory> protocols = {f.suite.spf(),
                                                         f.suite.reconvergence()};
  StormSweepConfig config;
  config.scenarios = 400;
  config.seed = 77;
  config.top_k = 5;

  SweepExecutor serial(1);
  const StormExperimentResult want = analysis::run_storm_experiment(
      f.g, f.demand, f.plan, model, protocols, config, serial);
  EXPECT_EQ(want.scenarios, 400u);
  EXPECT_GT(want.flows_per_scenario, 0u);

  for (const std::size_t threads : {2U, 8U}) {
    SweepExecutor executor(threads);
    const StormExperimentResult got = analysis::run_storm_experiment(
        f.g, f.demand, f.plan, model, protocols, config, executor);
    expect_identical(want, got);
  }
}

TEST(StormSweep, MatchesTheFullRerouteOracleOnTheSampledFailureSets) {
  // An independent oracle for the storm cell: draw the sweep's own failure
  // sets (scenario i from stream split_seed(seed, i)), price them through
  // the traffic driver's full re-route mode, and fold its rows in scenario
  // order.  The stretch stream comes from plain route_batch calls on the
  // failed and the pristine network.  The storm's volume sums, utilization
  // and stretch summaries and overload/loss counts must equal those folds
  // bit for bit at every thread count.
  StormFixture f;
  // Tighter than the fixture's plan, so re-routed demand overloads links.
  f.plan = traffic::CapacityPlan::uniform(f.g, 2e4);
  const SrlgCatalog catalog = net::geographic_srlgs(f.g, 1);
  const IndependentOutages model = IndependentOutages::uniform(catalog, 0.15);
  const std::vector<analysis::NamedFactory> protocols = {
      f.suite.spf(), f.suite.lfa(), f.suite.reconvergence(), f.suite.pr()};
  StormSweepConfig config;
  config.scenarios = 120;
  config.seed = 0x5EED;

  std::vector<EdgeSet> failure_sets;
  StormSample sample;
  for (std::size_t i = 0; i < config.scenarios; ++i) {
    graph::Rng rng(sim::split_seed(config.seed, i));
    model.sample(rng, sample);
    failure_sets.push_back(sample.failures);
  }
  const auto oracle =
      analysis::run_traffic_experiment(f.g, f.demand, f.plan, failure_sets, protocols,
                                       analysis::TrafficSweepMode::kFullReroute);

  struct Folded {
    double delivered = 0.0;
    double lost = 0.0;
    double stranded = 0.0;
    analysis::RunningSummary utilization;
    analysis::RunningSummary stretch;
    std::size_t overloaded_links = 0;
    std::size_t overloaded_scenarios = 0;
    std::size_t lossy_scenarios = 0;
  };
  std::vector<Folded> want(protocols.size());
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    for (const auto& row : oracle.protocols[i].per_scenario) {
      want[i].delivered += row.delivered_pps;
      want[i].lost += row.lost_pps;
      want[i].stranded += row.stranded_pps;
      want[i].utilization.add(row.max_utilization);
      want[i].overloaded_links += row.overloaded_links;
      if (row.overloaded_links > 0) ++want[i].overloaded_scenarios;
      if (row.lost_pps > 0.0) ++want[i].lossy_scenarios;
    }
  }
  // The sample exercises every class the fold counts: stranded demand
  // (partitions), lost demand (static SPF has no repair at all) and
  // overloaded links.
  EXPECT_GT(want[0].lost, 0.0);
  EXPECT_GT(want[0].stranded, 0.0);
  EXPECT_GT(want[2].overloaded_scenarios, 0u);

  // A scenario's stretch: the worst cost / pristine cost over the flows
  // delivered under it, and at least 1.
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  (void)analysis::collect_demand_flows(f.demand, flows, demands);
  const net::Network pristine(f.g);
  std::size_t stretched = 0;  // (scenario, protocol) cells above 1
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const auto pristine_proto = protocols[i].make(pristine);
    const sim::BatchResult base = sim::route_batch(pristine, *pristine_proto, flows);
    for (const EdgeSet& failures : failure_sets) {
      net::Network network(f.g);
      for (const graph::EdgeId e : failures.elements()) network.fail_link(e);
      const auto proto = protocols[i].make(network);
      const sim::BatchResult batch = sim::route_batch(network, *proto, flows);
      double worst = 1.0;
      for (std::size_t k = 0; k < flows.size(); ++k) {
        if (batch[k].delivered() && base[k].cost > 0.0) {
          worst = std::max(worst, batch[k].cost / base[k].cost);
        }
      }
      want[i].stretch.add(worst);
      if (worst > 1.0) ++stretched;
    }
  }
  EXPECT_GT(stretched, 0u);

  for (const std::size_t threads : {1U, 2U, 8U}) {
    SweepExecutor executor(threads);
    const StormExperimentResult storm = analysis::run_storm_experiment(
        f.g, f.demand, f.plan, model, protocols, config, executor);
    ASSERT_EQ(storm.scenarios, config.scenarios);
    ASSERT_EQ(storm.protocols.size(), protocols.size());
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const auto& got = storm.protocols[i];
      EXPECT_EQ(got.delivered_pps, want[i].delivered) << got.name << " @ " << threads;
      EXPECT_EQ(got.lost_pps, want[i].lost) << got.name << " @ " << threads;
      EXPECT_EQ(got.stranded_pps, want[i].stranded) << got.name << " @ " << threads;
      EXPECT_TRUE(got.utilization == want[i].utilization) << got.name << " @ " << threads;
      EXPECT_TRUE(got.stretch == want[i].stretch) << got.name << " @ " << threads;
      EXPECT_EQ(got.overloaded_links, want[i].overloaded_links) << got.name;
      EXPECT_EQ(got.overloaded_scenarios, want[i].overloaded_scenarios) << got.name;
      EXPECT_EQ(got.lossy_scenarios, want[i].lossy_scenarios) << got.name;
    }
  }
}

TEST(StormSweep, ValidatesItsInputs) {
  StormFixture f;
  graph::Rng catalog_rng(4);
  const SrlgCatalog catalog = net::random_srlgs(f.g, 4, 2, catalog_rng);
  const IndependentOutages model = IndependentOutages::uniform(catalog, 0.2);
  const std::vector<analysis::NamedFactory> protocols = {f.suite.spf()};
  SweepExecutor executor(1);

  StormSweepConfig config;
  config.scenarios = 0;  // must be > 0
  EXPECT_THROW((void)analysis::run_storm_experiment(f.g, f.demand, f.plan, model,
                                                    protocols, config, executor),
               std::invalid_argument);

  config.scenarios = 10;
  EXPECT_THROW((void)analysis::run_storm_experiment(f.g, f.demand, f.plan, model, {},
                                                    config, executor),
               std::invalid_argument);

  config.quantiles = {0.5, 1.0};  // quantiles must lie in (0, 1)
  EXPECT_THROW((void)analysis::run_storm_experiment(f.g, f.demand, f.plan, model,
                                                    protocols, config, executor),
               std::invalid_argument);

  // Model built over a different graph than the sweep's.
  const Graph other = topo::geant();
  const SrlgCatalog foreign_catalog = net::geographic_srlgs(other, 1);
  const IndependentOutages foreign =
      IndependentOutages::uniform(foreign_catalog, 0.2);
  config.quantiles = {0.5};
  EXPECT_THROW((void)analysis::run_storm_experiment(f.g, f.demand, f.plan, foreign,
                                                    protocols, config, executor),
               std::invalid_argument);
}

TEST(StormSweep, ZeroOutageModelReproducesThePristineNetworkExactly) {
  // With every group probability 0 the only subset with mass is the empty
  // one: the oracle's expectations and the sampled streams must all collapse
  // to the pristine cell -- exactly, not approximately.
  StormFixture f;
  graph::Rng catalog_rng(6);
  const SrlgCatalog catalog = net::random_srlgs(f.g, 5, 3, catalog_rng);
  const IndependentOutages model = IndependentOutages::uniform(catalog, 0.0);
  const std::vector<analysis::NamedFactory> protocols = {f.suite.reconvergence()};

  const auto oracle =
      analysis::run_exhaustive_storm(f.g, f.demand, f.plan, model, protocols);
  ASSERT_EQ(oracle.protocols.size(), 1u);
  EXPECT_EQ(oracle.scenarios, 32u);  // 2^5 subsets, all but one weightless
  EXPECT_DOUBLE_EQ(oracle.total_probability, 1.0);
  EXPECT_EQ(oracle.protocols[0].loss_probability, 0.0);

  StormSweepConfig config;
  config.scenarios = 50;
  config.seed = 123;
  SweepExecutor executor(2);
  const auto sampled = analysis::run_storm_experiment(f.g, f.demand, f.plan, model,
                                                      protocols, config, executor);
  EXPECT_EQ(sampled.calm_scenarios, 50u);
  EXPECT_EQ(sampled.disconnected_scenarios, 0u);
  const auto& p = sampled.protocols[0];
  // Constant stream: min == mean == max == the pristine max utilization, and
  // every sampled quantile equals the oracle's weighted quantile exactly.
  EXPECT_DOUBLE_EQ(p.utilization.min, p.utilization.max);
  EXPECT_NEAR(p.utilization.mean(), oracle.protocols[0].mean_max_utilization, 1e-9);
  EXPECT_EQ(p.utilization_quantiles, oracle.protocols[0].utilization_quantiles);
  EXPECT_EQ(p.stretch_quantiles, oracle.protocols[0].stretch_quantiles);
  EXPECT_EQ(p.lost_pps, 0.0);
  EXPECT_EQ(p.lossy_scenarios, 0u);
  EXPECT_EQ(p.rerouted_flows, 0u);
}

TEST(StormSweep, SampledEstimatesConvergeToTheExhaustiveOracle) {
  // A fully enumerable 6-group catalog with heavy outage probabilities:
  // 2^6 = 64 exact weighted subsets vs a 3000-scenario sampled sweep.  The
  // law of large numbers, not bit-identity: means and probabilities must land
  // within a few standard errors of the oracle.
  StormFixture f;
  graph::Rng catalog_rng(8);
  const SrlgCatalog catalog = net::random_srlgs(f.g, 6, 3, catalog_rng);
  const IndependentOutages model = IndependentOutages::uniform(catalog, 0.25);
  const std::vector<analysis::NamedFactory> protocols = {f.suite.spf(),
                                                         f.suite.reconvergence()};

  const auto oracle =
      analysis::run_exhaustive_storm(f.g, f.demand, f.plan, model, protocols);
  ASSERT_EQ(oracle.scenarios, 64u);
  EXPECT_NEAR(oracle.total_probability, 1.0, 1e-9);

  StormSweepConfig config;
  config.scenarios = 3000;
  config.seed = 0xC0FFEE;
  SweepExecutor executor(2);
  const auto sampled = analysis::run_storm_experiment(f.g, f.demand, f.plan, model,
                                                      protocols, config, executor);

  const double n = static_cast<double>(sampled.scenarios);
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const auto& o = oracle.protocols[i];
    const auto& s = sampled.protocols[i];
    EXPECT_EQ(o.name, s.name);
    EXPECT_NEAR(s.utilization.mean(), o.mean_max_utilization,
                0.05 * o.mean_max_utilization + 1e-12)
        << o.name;
    EXPECT_NEAR(s.delivered_pps / n, o.expected_delivered_pps,
                0.02 * o.expected_delivered_pps + 1e-9)
        << o.name;
    EXPECT_NEAR(static_cast<double>(s.lossy_scenarios) / n, o.loss_probability, 0.05)
        << o.name;
    EXPECT_NEAR(static_cast<double>(s.overloaded_scenarios) / n,
                o.overload_probability, 0.05)
        << o.name;
  }
}

}  // namespace
}  // namespace pr
