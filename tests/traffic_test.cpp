// Tests for the traffic workload subsystem: demand matrices and generators,
// CSV round-trips, the shared capacity plan, demand-weighted load
// accumulation in route_batch, congestion metrics, and -- the load-bearing
// guarantee -- bit-identical traffic sweeps at every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/traffic.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/failure_model.hpp"
#include "net/queueing.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/run_control.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/congestion.hpp"
#include "traffic/demand.hpp"
#include "traffic/load_map.hpp"

namespace pr {
namespace {

using traffic::CapacityPlan;
using traffic::LoadMap;
using traffic::TrafficMatrix;

// ---------------------------------------------------------------------------
// TrafficMatrix and generators

TEST(TrafficMatrix, BasicAccounting) {
  TrafficMatrix m(3);
  EXPECT_EQ(m.node_count(), 3u);
  EXPECT_DOUBLE_EQ(m.total_pps(), 0.0);
  m.set_demand(0, 1, 100.0);
  m.add_demand(0, 1, 50.0);
  m.set_demand(2, 0, 25.0);
  EXPECT_DOUBLE_EQ(m.demand(0, 1), 150.0);
  EXPECT_DOUBLE_EQ(m.total_pps(), 175.0);
  EXPECT_EQ(m.pair_count(), 2u);

  m.scale_to_total(350.0);
  EXPECT_DOUBLE_EQ(m.demand(0, 1), 300.0);
  EXPECT_DOUBLE_EQ(m.demand(2, 0), 50.0);
}

TEST(TrafficMatrix, RejectsBadEntries) {
  TrafficMatrix m(3);
  EXPECT_THROW(m.set_demand(1, 1, 5.0), std::invalid_argument);   // diagonal
  EXPECT_THROW(m.set_demand(0, 1, -1.0), std::invalid_argument);  // negative
  EXPECT_THROW(m.set_demand(0, 1, std::nan("")), std::invalid_argument);
  EXPECT_THROW(m.set_demand(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(m.scale_to_total(100.0), std::invalid_argument);  // all-zero
}

TEST(DemandGenerators, UniformSplitsEvenly) {
  const auto g = graph::ring(5);
  const auto m = traffic::uniform_demand(g, 1000.0);
  EXPECT_NEAR(m.total_pps(), 1000.0, 1e-9);
  EXPECT_EQ(m.pair_count(), 20u);
  EXPECT_DOUBLE_EQ(m.demand(0, 1), 50.0);
  EXPECT_DOUBLE_EQ(m.demand(4, 2), 50.0);
}

TEST(DemandGenerators, GravityFollowsNodeMasses) {
  // Star plus an edge: the hub has the largest degree, so hub-adjacent pairs
  // carry the most demand.
  graph::Graph g;
  for (int i = 0; i < 4; ++i) g.add_node();
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  const auto m = traffic::gravity_demand(g, 900.0);
  EXPECT_NEAR(m.total_pps(), 900.0, 1e-9);
  // mass(0)=3, mass(1)=mass(2)=2, mass(3)=1.
  EXPECT_GT(m.demand(0, 1), m.demand(1, 3));
  EXPECT_GT(m.demand(1, 0), m.demand(3, 1));
  EXPECT_DOUBLE_EQ(m.demand(1, 2), m.demand(2, 1));  // symmetric masses

  // Weight masses differ once weights do.
  g.set_edge_weight(*g.find_edge(0, 3), 10.0);
  const auto mw = traffic::gravity_demand(g, 900.0, traffic::GravityMass::kWeight);
  EXPECT_GT(mw.demand(3, 1), mw.demand(1, 3) / 10.0);
  EXPECT_NEAR(mw.total_pps(), 900.0, 1e-9);
}

TEST(DemandGenerators, HotspotSkewsAndIsSeedDeterministic) {
  const auto g = topo::abilene();
  graph::Rng rng_a(graph::split_seed(7, 0));
  graph::Rng rng_b(graph::split_seed(7, 0));
  const auto a = traffic::hotspot_demand(g, 1e6, 2, 0.5, rng_a);
  const auto b = traffic::hotspot_demand(g, 1e6, 2, 0.5, rng_b);
  EXPECT_EQ(a, b);  // same seed, bit-identical matrix
  EXPECT_NEAR(a.total_pps(), 1e6, 1e-6);

  // Half the volume lands on 2 hotspot columns: their column sums dominate.
  std::vector<double> col(g.node_count(), 0.0);
  for (graph::NodeId s = 0; s < g.node_count(); ++s) {
    for (graph::NodeId t = 0; t < g.node_count(); ++t) {
      if (s != t) col[t] += a.demand(s, t);
    }
  }
  std::sort(col.begin(), col.end());
  const double hot_two = col[g.node_count() - 1] + col[g.node_count() - 2];
  EXPECT_GT(hot_two, 0.5 * 1e6);

  graph::Rng rng_c(graph::split_seed(7, 1));
  const auto c = traffic::hotspot_demand(g, 1e6, 2, 0.5, rng_c);
  EXPECT_NE(a, c);  // different stream, different hotspots (w.h.p.)

  EXPECT_THROW(traffic::hotspot_demand(g, 1e6, 0, 0.5, rng_c), std::invalid_argument);
  EXPECT_THROW(traffic::hotspot_demand(g, 1e6, 2, 1.5, rng_c), std::invalid_argument);
}

TEST(DemandCsv, RoundTripsBitExactly) {
  const auto g = topo::abilene();  // labelled nodes
  graph::Rng rng(11);
  const auto m = traffic::hotspot_demand(g, 123456.789, 3, 0.37, rng);
  const auto text = traffic::demand_to_csv(g, m);
  const auto back = traffic::demand_from_csv(g, text);
  EXPECT_EQ(m, back);  // bit-exact doubles via max-precision serialisation
}

TEST(DemandCsv, RoundTripsUnlabeledNodes) {
  const auto g = graph::ring(4);  // display names n0..n3
  TrafficMatrix m(4);
  m.set_demand(0, 3, 12.5);
  m.set_demand(2, 1, 0.25);
  const auto back = traffic::demand_from_csv(g, traffic::demand_to_csv(g, m));
  EXPECT_EQ(m, back);
}

TEST(DemandCsv, ParsesCommentsAndWhitespace) {
  const auto g = topo::abilene();
  const auto m = traffic::demand_from_csv(
      g, "# a comment line\n  Seattle , Denver , 100.5  # trailing\n\nDenver,Seattle,1\n");
  EXPECT_DOUBLE_EQ(m.demand(*g.find_node("Seattle"), *g.find_node("Denver")), 100.5);
  EXPECT_DOUBLE_EQ(m.demand(*g.find_node("Denver"), *g.find_node("Seattle")), 1.0);
  EXPECT_EQ(m.pair_count(), 2u);
}

TEST(DemandCsv, RefusesAmbiguousUnlabeledNodeNames) {
  // Node 0 is labelled "n1" while node 1 is unlabeled: node 1 would
  // serialise as "n1" and re-read as node 0, so serialisation must refuse.
  graph::Graph g;
  g.add_node("n1");
  g.add_node();
  g.add_node("C");
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  TrafficMatrix m(3);
  m.set_demand(1, 2, 5.0);
  EXPECT_THROW((void)traffic::demand_to_csv(g, m), std::invalid_argument);

  // With the ambiguous node uninvolved, serialisation works and the label
  // precedence resolves "n1" to the labelled node.
  TrafficMatrix ok(3);
  ok.set_demand(0, 2, 7.0);
  const auto back = traffic::demand_from_csv(g, traffic::demand_to_csv(g, ok));
  EXPECT_EQ(ok, back);
  EXPECT_DOUBLE_EQ(traffic::demand_from_csv(g, "n1,C,3\n").demand(0, 2), 3.0);
}

TEST(DemandCsv, RejectsMalformedRecordsWithLineNumbers) {
  const auto g = topo::abilene();
  const auto expect_throw_line = [&](std::string_view text, const char* line_tag) {
    try {
      (void)traffic::demand_from_csv(g, text);
      FAIL() << "no throw for: " << text;
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find(line_tag), std::string::npos) << ex.what();
    }
  };
  expect_throw_line("Seattle,Denver\n", "line 1");            // missing rate
  expect_throw_line("\nNowhere,Denver,5\n", "line 2");        // unknown node
  expect_throw_line("Seattle,Seattle,5\n", "line 1");         // self-pair
  expect_throw_line("Seattle,Denver,-5\n", "line 1");         // negative
  expect_throw_line("Seattle,Denver,fast\n", "line 1");       // bad number
  expect_throw_line("Seattle,Denver,5\nSeattle,Denver,6\n", "line 2");  // duplicate
  // A zero-rate first record still claims the pair.
  expect_throw_line("Seattle,Denver,0\nSeattle,Denver,6\n", "line 2");
}

TEST(DemandCsv, RefusesLabelsThatWouldNotRoundTrip) {
  // Labels with CSV metacharacters or surrounding whitespace re-read as a
  // different string (or a different node), so serialisation refuses them.
  for (const char* bad : {"A,B", "A#B", " A", "A\t"}) {
    graph::Graph g;
    g.add_node(bad);
    g.add_node("B");
    g.add_edge(0, 1);
    TrafficMatrix m(2);
    m.set_demand(0, 1, 5.0);
    EXPECT_THROW((void)traffic::demand_to_csv(g, m), std::invalid_argument) << bad;
    // Uninvolved, the awkward label is fine.
    TrafficMatrix none(2);
    EXPECT_NO_THROW((void)traffic::demand_to_csv(g, none));
  }
}

// ---------------------------------------------------------------------------
// CapacityPlan and the shared QueueModel pricing

TEST(CapacityPlan, ConstructorsAndOverrides) {
  const auto g = topo::abilene();
  auto plan = CapacityPlan::uniform(g, 1000.0);
  EXPECT_EQ(plan.edge_count(), g.edge_count());
  EXPECT_DOUBLE_EQ(plan.capacity_pps(3), 1000.0);
  plan.set_capacity_pps(3, 2500.0);
  EXPECT_DOUBLE_EQ(plan.capacity_pps(3), 2500.0);
  EXPECT_THROW(plan.set_capacity_pps(3, 0.0), std::invalid_argument);
  EXPECT_THROW(CapacityPlan::uniform(g, -1.0), std::invalid_argument);

  graph::Graph wg;
  wg.add_node();
  wg.add_node();
  wg.add_node();
  wg.add_edge(0, 1, 1.0);
  wg.add_edge(1, 2, 4.0);
  const auto weighted = CapacityPlan::from_weights(wg, 100.0);
  EXPECT_DOUBLE_EQ(weighted.capacity_pps(0), 100.0);
  EXPECT_DOUBLE_EQ(weighted.capacity_pps(1), 400.0);
}

TEST(CapacityPlan, QueueConfigRoundTrip) {
  const auto g = topo::abilene();
  net::QueueModel::Config cfg;
  cfg.link_rate_bps = 8e6;
  cfg.packet_bits = 8000;
  cfg.queue_packets = 32;
  const auto plan = CapacityPlan::from_queue_config(g, cfg);
  EXPECT_DOUBLE_EQ(plan.capacity_pps(0), 1000.0);  // 8e6 / 8000

  const auto back = plan.queue_config(cfg.packet_bits, cfg.queue_packets);
  EXPECT_DOUBLE_EQ(back.link_rate_bps, cfg.link_rate_bps);
  EXPECT_EQ(back.queue_packets, cfg.queue_packets);

  auto mixed = plan;
  mixed.set_capacity_pps(0, 5000.0);
  EXPECT_THROW((void)mixed.queue_config(8000, 32), std::logic_error);
}

TEST(CapacityPlan, PerEdgeQueueModelPricesLinksLikeThePlan) {
  graph::Graph g;
  g.add_node();
  g.add_node();
  g.add_node();
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 4.0);
  const auto plan = CapacityPlan::from_weights(g, 1000.0);  // 1000 and 4000 pps
  net::Network network(g);
  net::QueueModel::Config cfg;
  cfg.packet_bits = 8000;
  const net::QueueModel queues(network, cfg, plan.link_rates_bps(cfg.packet_bits));
  // Service time per dart = 1 / capacity_pps, both directions of each edge.
  EXPECT_DOUBLE_EQ(queues.transmission_time(graph::make_dart(0, 0)), 1.0 / 1000.0);
  EXPECT_DOUBLE_EQ(queues.transmission_time(graph::make_dart(0, 1)), 1.0 / 1000.0);
  EXPECT_DOUBLE_EQ(queues.transmission_time(graph::make_dart(1, 0)), 1.0 / 4000.0);

  EXPECT_THROW(net::QueueModel(network, cfg, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(net::QueueModel(network, cfg, std::vector<double>{8e6, 0.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LoadMap and demand-weighted route_batch

TEST(LoadMap, AccumulatesAndMerges) {
  LoadMap a(4);
  a.add(0, 10.0);
  a.add(0, 5.0);
  a.add(3, 1.0);
  EXPECT_DOUBLE_EQ(a.load(0), 15.0);
  EXPECT_DOUBLE_EQ(a.total_pps(), 16.0);

  LoadMap b(4);
  b.add(0, 1.0);
  b.add(1, 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.load(0), 16.0);
  EXPECT_DOUBLE_EQ(a.load(1), 2.0);

  LoadMap wrong(3);
  EXPECT_THROW(a.merge(wrong), std::invalid_argument);

  a.reset(4);
  EXPECT_DOUBLE_EQ(a.total_pps(), 0.0);
}

TEST(LoadMapReduction, AddAndMergeAdoptSizesAndCountScenarios) {
  LoadMap s0(2);
  s0.add(0, 10.0);
  LoadMap s1(2);
  s1.add(1, 4.0);

  // Serial style: fold scenario maps directly.
  traffic::LoadMapReduction serial;
  serial.add(s0);
  serial.add(s1);
  EXPECT_EQ(serial.scenarios, 2u);
  EXPECT_DOUBLE_EQ(serial.load.load(0), 10.0);
  EXPECT_DOUBLE_EQ(serial.load.load(1), 4.0);

  // Parallel style: per-unit reductions merged in canonical order (the
  // empty-into-empty and empty-other corners included) equal the serial fold.
  traffic::LoadMapReduction u0;
  u0.add(s0);
  traffic::LoadMapReduction u1;
  u1.add(s1);
  traffic::LoadMapReduction total;
  total.merge(traffic::LoadMapReduction{});  // no-op
  total.merge(u0);
  total.merge(u1);
  total.merge(traffic::LoadMapReduction{});  // still a no-op on the map
  EXPECT_EQ(total.load, serial.load);
  EXPECT_EQ(total.scenarios, 2u);
}

TEST(RouteBatchDemand, ChargesEveryTraversedDart) {
  // Path A-B-C: flow A->C loads both darts along the path, nothing else.
  graph::Graph g;
  const auto a = g.add_node("A");
  const auto b = g.add_node("B");
  const auto c = g.add_node("C");
  const auto e_ab = g.add_edge(a, b);
  const auto e_bc = g.add_edge(b, c);

  const analysis::ProtocolSuite suite(g);
  net::Network network(g);
  const auto proto = suite.spf().make(network);

  const std::vector<sim::FlowSpec> flows{{a, c}, {c, a}};
  const std::vector<double> demands{100.0, 40.0};
  LoadMap load;
  sim::BatchResult batch;
  sim::route_batch(network, *proto, flows, demands, load, sim::TraceMode::kStats,
                   batch);

  EXPECT_EQ(batch.delivered_count(), 2u);
  EXPECT_DOUBLE_EQ(load.load(g.dart_from(a, e_ab)), 100.0);
  EXPECT_DOUBLE_EQ(load.load(g.dart_from(b, e_bc)), 100.0);
  EXPECT_DOUBLE_EQ(load.load(g.dart_from(c, e_bc)), 40.0);
  EXPECT_DOUBLE_EQ(load.load(g.dart_from(b, e_ab)), 40.0);
  EXPECT_DOUBLE_EQ(load.total_pps(), 280.0);

  EXPECT_THROW(sim::route_batch(network, *proto, flows, std::vector<double>{1.0},
                                load, sim::TraceMode::kStats, batch),
               std::invalid_argument);
}

TEST(RouteBatchDemand, DroppedFlowLoadsItsPartialPath) {
  // Path A-B-C with B-C failed: plain SPF drops at B after crossing A-B, so
  // the A-side dart carries the demand and the dead link carries none.
  graph::Graph g;
  const auto a = g.add_node("A");
  const auto b = g.add_node("B");
  const auto c = g.add_node("C");
  const auto e_ab = g.add_edge(a, b);
  const auto e_bc = g.add_edge(b, c);

  const analysis::ProtocolSuite suite(g);
  net::Network network(g);
  network.fail_link(e_bc);
  const auto proto = suite.spf().make(network);

  const std::vector<sim::FlowSpec> flows{{a, c}};
  const std::vector<double> demands{60.0};
  LoadMap load;
  sim::BatchResult batch;
  sim::route_batch(network, *proto, flows, demands, load, sim::TraceMode::kStats,
                   batch);

  EXPECT_EQ(batch.delivered_count(), 0u);
  EXPECT_DOUBLE_EQ(load.load(g.dart_from(a, e_ab)), 60.0);
  EXPECT_DOUBLE_EQ(load.load(g.dart_from(b, e_bc)), 0.0);
  EXPECT_DOUBLE_EQ(load.total_pps(), 60.0);
}

TEST(RouteBatchDemand, MatchesPlainOverloadOutcomes) {
  // The demand-weighted overload may never change routing results.
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  net::Network network(g);
  network.fail_link(2);
  const auto flows = sim::all_pairs_flows(g);
  const std::vector<double> demands(flows.size(), 3.25);

  const auto p1 = suite.pr().make(network);
  const auto plain = sim::route_batch(network, *p1, flows);
  const auto p2 = suite.pr().make(network);
  LoadMap load;
  sim::BatchResult weighted;
  sim::route_batch(network, *p2, flows, demands, load, sim::TraceMode::kStats,
                   weighted);

  ASSERT_EQ(weighted.size(), plain.size());
  for (std::size_t f = 0; f < plain.size(); ++f) {
    EXPECT_EQ(weighted[f].status, plain[f].status);
    EXPECT_EQ(weighted[f].hops, plain[f].hops);
    EXPECT_EQ(weighted[f].cost, plain[f].cost);
  }
  // Load is demand-weighted hop volume: sum of hops times the uniform rate.
  std::uint64_t hops = 0;
  for (const auto& fs : plain.stats()) hops += fs.hops;
  EXPECT_NEAR(load.total_pps(), static_cast<double>(hops) * 3.25, 1e-6);
}

// ---------------------------------------------------------------------------
// Congestion metrics

TEST(Congestion, UtilizationAndSummary) {
  graph::Graph g;
  g.add_node();
  g.add_node();
  g.add_node();
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto plan = CapacityPlan::uniform(g, 100.0);
  LoadMap load(g.dart_count());
  load.add(graph::make_dart(0, 0), 150.0);  // 1.5x on edge 0 forward
  load.add(graph::make_dart(1, 1), 50.0);   // 0.5x on edge 1 reverse

  traffic::CongestionMetrics m;
  traffic::apply_utilization(m, g, load, plan);
  EXPECT_DOUBLE_EQ(m.max_utilization, 1.5);
  EXPECT_EQ(m.overloaded_links, 1u);

  traffic::CongestionMetrics quiet;
  traffic::apply_utilization(quiet, g, LoadMap(g.dart_count()), plan);
  EXPECT_DOUBLE_EQ(quiet.max_utilization, 0.0);
  EXPECT_EQ(quiet.overloaded_links, 0u);

  m.offered_pps = 200.0;
  m.delivered_pps = 150.0;
  m.lost_pps = 30.0;
  m.stranded_pps = 20.0;
  const std::vector<traffic::CongestionMetrics> rows{m, quiet};
  const auto s = traffic::summarize(rows);
  EXPECT_EQ(s.scenarios, 2u);
  EXPECT_DOUBLE_EQ(s.worst_max_utilization, 1.5);
  EXPECT_DOUBLE_EQ(s.mean_max_utilization, 0.75);
  EXPECT_EQ(s.overloaded_links, 1u);
  EXPECT_EQ(s.overloaded_scenarios, 1u);
  EXPECT_DOUBLE_EQ(s.offered_pps, 200.0);
  EXPECT_DOUBLE_EQ(s.stranded_pps, 20.0);
}

// ---------------------------------------------------------------------------
// Traffic experiment: volume accounting and sweep determinism

TEST(TrafficExperiment, ClassifiesStrandedVsLostVolume) {
  // Ring of 4 with two failures partitioning node 1 away from node 3.
  const auto g = graph::ring(4);
  const analysis::ProtocolSuite suite(g);
  TrafficMatrix demand(g.node_count());
  demand.set_demand(0, 1, 100.0);
  demand.set_demand(3, 1, 50.0);
  const auto plan = CapacityPlan::uniform(g, 1000.0);

  // Failing both of node 1's links isolates it; all demand into 1 strands.
  std::vector<graph::EdgeSet> scenarios(1, graph::EdgeSet(g.edge_count()));
  scenarios[0].insert(*g.find_edge(0, 1));
  scenarios[0].insert(*g.find_edge(1, 2));

  const auto result = analysis::run_traffic_experiment(g, demand, plan, scenarios,
                                                       {suite.reconvergence()});
  ASSERT_EQ(result.protocols.size(), 1u);
  const auto& rows = result.protocols[0].per_scenario;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].offered_pps, 150.0);
  EXPECT_DOUBLE_EQ(rows[0].delivered_pps, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].lost_pps, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].stranded_pps, 150.0);

  // A survivable single failure delivers everything under reconvergence.
  std::vector<graph::EdgeSet> single(1, graph::EdgeSet(g.edge_count()));
  single[0].insert(*g.find_edge(0, 1));
  const auto ok = analysis::run_traffic_experiment(g, demand, plan, single,
                                                   {suite.reconvergence()});
  EXPECT_DOUBLE_EQ(ok.protocols[0].per_scenario[0].delivered_pps, 150.0);
  EXPECT_DOUBLE_EQ(ok.protocols[0].per_scenario[0].stranded_pps, 0.0);
}

TEST(TrafficExperiment, LfaCoverageGapsPriceAsLostVolume) {
  // LFA drops recoverable demand where it lacks an alternate; that demand
  // must appear as lost (not stranded) because a path still existed.
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto demand = traffic::uniform_demand(g, 1e5);
  const auto plan = CapacityPlan::uniform(g, 1e5);
  const auto scenarios = net::all_single_failures(g);

  const auto result =
      analysis::run_traffic_experiment(g, demand, plan, scenarios, {suite.lfa()});
  const auto s = result.protocols[0].summary();
  EXPECT_GT(s.lost_pps, 0.0);
  EXPECT_DOUBLE_EQ(s.stranded_pps, 0.0);  // Abilene is 2-edge-connected
  EXPECT_NEAR(s.offered_pps, s.delivered_pps + s.lost_pps + s.stranded_pps, 1e-6);
}

/// Every field equal, metric rows and load maps as exact doubles: the
/// canonical-order merge makes the floating-point sums exact.
void expect_identical_traffic(const analysis::TrafficExperimentResult& serial,
                              const analysis::TrafficExperimentResult& parallel,
                              std::size_t threads) {
  ASSERT_EQ(parallel.protocols.size(), serial.protocols.size());
  for (std::size_t i = 0; i < serial.protocols.size(); ++i) {
    EXPECT_TRUE(parallel.protocols[i] == serial.protocols[i])
        << serial.protocols[i].name << " @ " << threads;
  }
  EXPECT_TRUE(parallel == serial) << threads << " threads";
}

TEST(TrafficExperiment, WeightedCostDiscriminatorSuiteIsSafe) {
  // Regression guard: the driver's stranded/lost classification must not
  // borrow the ScenarioRoutingCache's table storage -- a kWeightedCost suite
  // makes cached factories request a different DiscriminatorKind from the
  // same per-worker cache, which reallocates the cached RoutingDb.  An
  // earlier draft held such a reference across make_protocol (use-after-free
  // under ASan); classification now uses residual components instead.
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g, embed::EmbedOptions{},
                                      route::DiscriminatorKind::kWeightedCost);
  const auto demand = traffic::uniform_demand(g, 1e4);
  const auto plan = CapacityPlan::uniform(g, 1e4);
  const auto scenarios = net::all_single_failures(g);
  const std::vector<analysis::NamedFactory> protocols = {suite.reconvergence(),
                                                         suite.pr()};

  const auto serial =
      analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols);
  EXPECT_GT(serial.protocols[0].summary().delivered_pps, 0.0);
  sim::SweepExecutor executor(2);
  expect_identical_traffic(
      serial,
      analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                       executor),
      2);
}

TEST(TrafficSweepDeterminismTest, BitIdenticalAcrossThreadCountsAndProtocols) {
  for (const std::uint64_t topo_seed : {1ULL, 2ULL}) {
    graph::Rng rng(topo_seed);
    const graph::Graph g = graph::random_two_edge_connected(10, 6, rng);
    const analysis::ProtocolSuite suite(g);
    const std::vector<analysis::NamedFactory> protocols = {
        suite.pr(), suite.lfa(), suite.reconvergence(), suite.fcp()};

    graph::Rng demand_rng(graph::split_seed(topo_seed, 42));
    const auto demand = traffic::hotspot_demand(g, 5e5, 2, 0.4, demand_rng);
    const auto plan = CapacityPlan::from_weights(g, 1e4);

    // Partitions included: stranded classification must be deterministic too.
    auto scenarios = net::all_single_failures(g);
    for (auto& s : net::sample_any_failures(g, 2, 8, rng)) {
      scenarios.push_back(std::move(s));
    }

    const auto serial =
        analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols);
    for (const std::size_t threads : {1U, 2U, 8U}) {
      sim::SweepExecutor executor(threads);
      expect_identical_traffic(
          serial,
          analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                           executor),
          threads);
    }
  }
}

TEST(TrafficSweepDeterminismTest, AbileneGravitySingleFailures) {
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const std::vector<analysis::NamedFactory> protocols = {suite.pr(), suite.lfa(),
                                                         suite.reconvergence()};
  const auto demand = traffic::gravity_demand(g, 1e6);
  const auto plan = CapacityPlan::uniform(g, 2.5e5);
  const auto scenarios = net::all_single_failures(g);

  const auto serial =
      analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols);
  // Sanity: the sweep moves real volume and conserves it.
  for (const auto& p : serial.protocols) {
    const auto s = p.summary();
    EXPECT_NEAR(s.offered_pps, s.delivered_pps + s.lost_pps + s.stranded_pps, 1e-6)
        << p.name;
    EXPECT_GT(s.delivered_pps, 0.0) << p.name;
  }
  for (const std::size_t threads : {2U, 8U}) {
    sim::SweepExecutor executor(threads);
    expect_identical_traffic(
        serial,
        analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                         executor),
        threads);
  }
}

// ---------------------------------------------------------------------------
// demand_from_csv hardening (PR 8): every malformed-input class must throw
// std::invalid_argument naming the RIGHT line, with no UB on the way (this
// suite runs under ASan/UBSan in CI).

TEST(DemandCsv, MalformedInputTableNamesLineAndCause) {
  const auto g = topo::abilene();
  struct Case {
    const char* text;
    const char* line_tag;
    const char* cause;
  };
  const Case cases[] = {
      // Field-count violations, including separators that never split.
      {"Seattle,Denver,5,9\n", "line 1", "expected 'src,dst,pps'"},
      {"Seattle;Denver;5\n", "line 1", "expected 'src,dst,pps'"},
      {"Seattle,Denver\n", "line 1", "expected 'src,dst,pps'"},
      // Endpoint resolution, including the empty token.
      {",Denver,5\n", "line 1", "unknown node ''"},
      {"Seattle,Atlantis,5\n", "line 1", "unknown node 'Atlantis'"},
      {"n99,Denver,5\n", "line 1", "unknown node 'n99'"},
      {"Seattle,Seattle,5\n", "line 1", "self-pair 'Seattle'"},
      // Rate parsing: junk, trailing junk, and out-of-double-range.
      {"Seattle,Denver,fast\n", "line 1", "bad rate 'fast'"},
      {"Seattle,Denver,5x\n", "line 1", "bad rate '5x'"},
      {"Seattle,Denver,1e999\n", "line 1", "bad rate '1e999'"},
      {"Seattle,Denver,\n", "line 1", "bad rate ''"},
      // Parses as a double but is not admissible demand.
      {"Seattle,Denver,-5\n", "line 1", "rate must be finite and >= 0"},
      {"Seattle,Denver,nan\n", "line 1", "rate must be finite and >= 0"},
      {"Seattle,Denver,inf\n", "line 1", "rate must be finite and >= 0"},
      // Line numbering must count comments and blank lines.
      {"# header\n\nSeattle,Denver,5\nDenver , Seattle , oops\n", "line 4",
       "bad rate 'oops'"},
      {"Seattle,Denver,5\n\n# note\nAtlantis,Denver,1\n", "line 4",
       "unknown node 'Atlantis'"},
      {"Seattle,Denver,1\n# again\nSeattle,Denver,2\n", "line 3",
       "duplicate pair Seattle -> Denver"},
  };
  for (const Case& c : cases) {
    try {
      (void)traffic::demand_from_csv(g, c.text);
      FAIL() << "no throw for: " << c.text;
    } catch (const std::invalid_argument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find("demand csv"), std::string::npos) << what;
      EXPECT_NE(what.find(c.line_tag), std::string::npos)
          << what << "  input: " << c.text;
      EXPECT_NE(what.find(c.cause), std::string::npos)
          << what << "  input: " << c.text;
    }
  }
}

TEST(DemandCsv, SurvivesHostileShapesWithoutUB) {
  // Inputs chosen to stress the scanner's boundary arithmetic: no trailing
  // newline, lone separators, CR-LF endings, comment-only and whitespace-only
  // bodies.  None of these should read out of bounds (ASan is the judge);
  // the valid ones must parse, the rest throw cleanly.
  const auto g = topo::abilene();
  EXPECT_EQ(traffic::demand_from_csv(g, "").total_pps(), 0.0);
  EXPECT_EQ(traffic::demand_from_csv(g, "\n\n\n").total_pps(), 0.0);
  EXPECT_EQ(traffic::demand_from_csv(g, "# only a comment").total_pps(), 0.0);
  EXPECT_EQ(traffic::demand_from_csv(g, "   \t  ").total_pps(), 0.0);
  // No trailing newline on the last (valid) record.
  EXPECT_DOUBLE_EQ(
      traffic::demand_from_csv(g, "Seattle,Denver,5").demand(*g.find_node("Seattle"),
                                                             *g.find_node("Denver")),
      5.0);
  // CR-LF line endings trim cleanly.
  EXPECT_DOUBLE_EQ(traffic::demand_from_csv(g, "Seattle,Denver,7\r\n")
                       .demand(*g.find_node("Seattle"), *g.find_node("Denver")),
                   7.0);
  // A lone comma line is two empty fields, not a crash.
  EXPECT_THROW((void)traffic::demand_from_csv(g, ","), std::invalid_argument);
  EXPECT_THROW((void)traffic::demand_from_csv(g, ",,"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Resilient traffic sweeps: RunControl truncation over enumerated scenarios.

TEST(TrafficResilience, BudgetPrefixMatchesASmallerRun) {
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto demand = traffic::uniform_demand(g, 1e4);
  const auto plan = CapacityPlan::uniform(g, 1e4);
  const auto scenarios = net::all_single_failures(g);
  ASSERT_GT(scenarios.size(), 7u);
  const std::vector<analysis::NamedFactory> protocols = {suite.reconvergence(),
                                                         suite.pr()};

  const auto want = analysis::run_traffic_experiment(
      g, demand, plan,
      std::span<const graph::EdgeSet>(scenarios).first(7), protocols);

  for (const std::size_t threads : {1U, 2U, 8U}) {
    sim::SweepExecutor executor(threads);
    sim::RunControl control;
    control.set_unit_budget(7);
    const auto run = analysis::run_traffic_experiment_resilient(
        g, demand, plan, scenarios, protocols, executor, control);
    EXPECT_EQ(run.outcome.stop_reason, sim::StopReason::kBudget);
    EXPECT_EQ(run.outcome.completed_units, 7u);
    EXPECT_FALSE(run.complete());
    expect_identical_traffic(want, run.result, threads);
  }
}

TEST(TrafficResilience, InjectedFailureIsContainedWithContext) {
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto demand = traffic::uniform_demand(g, 1e4);
  const auto plan = CapacityPlan::uniform(g, 1e4);
  const auto scenarios = net::all_single_failures(g);
  const std::vector<analysis::NamedFactory> protocols = {suite.reconvergence()};

  sim::SweepExecutor executor(2);
  sim::RunControl control;
  sim::FaultPlan faults;
  faults.throw_in_unit(3);
  control.set_fault_plan(&faults);
  const auto run = analysis::run_traffic_experiment_resilient(
      g, demand, plan, scenarios, protocols, executor, control);
  EXPECT_EQ(run.outcome.stop_reason, sim::StopReason::kUnitError);
  EXPECT_EQ(run.outcome.completed_units, 3u);
  EXPECT_EQ(run.result.scenarios, 3u);
  ASSERT_NE(run.outcome.first_error(), nullptr);
  EXPECT_EQ(run.outcome.first_error()->unit, 3u);
  EXPECT_NE(run.outcome.first_error()->what.find("injected fault"),
            std::string::npos);

  // The legacy throwing overload reports the same context in its exception.
  try {
    (void)analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                           executor);
    SUCCEED();  // no control, no faults: completes
  } catch (...) {
    FAIL() << "uncontrolled run must not throw without a fault plan";
  }
}

/// `base`, except that building it under a scenario that fails `edge`
/// throws std::logic_error -- a protocol family that dies mid-unit, after the
/// protocols listed before it already priced the scenario.
analysis::NamedFactory throwing_on(graph::EdgeId edge, analysis::NamedFactory base) {
  return analysis::NamedFactory{
      "throws-on-edge-" + std::to_string(edge),
      [edge, base](const net::Network& net) {
        if (net.failed_links().contains(edge)) {
          throw std::logic_error("factory refuses edge " + std::to_string(edge));
        }
        return base.make(net);
      }};
}

TEST(TrafficResilience, ContinuePolicySkipsAFailedScenarioForEveryProtocol) {
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto demand = traffic::uniform_demand(g, 1e4);
  const auto plan = CapacityPlan::uniform(g, 1e4);
  const auto scenarios = net::all_single_failures(g);
  ASSERT_GT(scenarios.size(), 3u);
  const graph::EdgeId edge = scenarios[3].elements().front();
  const std::vector<analysis::NamedFactory> protocols = {
      suite.reconvergence(), throwing_on(edge, suite.pr())};

  // Scenario 3 fails while its second protocol is priced; the first one has
  // already produced a row by then.  The clean references run the same
  // protocols without the throw: over every scenario (for the rows) and over
  // the survivors only (for the summed loads).
  const auto clean = analysis::run_traffic_experiment(
      g, demand, plan, scenarios, {suite.reconvergence(), suite.pr()});
  std::vector<graph::EdgeSet> survivors(scenarios);
  survivors.erase(survivors.begin() + 3);
  const auto survivor_run = analysis::run_traffic_experiment(
      g, demand, plan, survivors, {suite.reconvergence(), suite.pr()});

  for (const std::size_t threads : {1U, 2U, 8U}) {
    sim::SweepExecutor executor(threads);
    sim::RunControl control;
    control.set_error_policy(sim::UnitErrorPolicy::kContinue);
    const auto run = analysis::run_traffic_experiment_resilient(
        g, demand, plan, scenarios, protocols, executor, control);
    EXPECT_TRUE(run.complete()) << threads;
    EXPECT_EQ(run.outcome.completed_units, scenarios.size()) << threads;
    ASSERT_EQ(run.outcome.error_count, 1u) << threads;
    EXPECT_EQ(run.outcome.first_error()->unit, 3u) << threads;

    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const auto& rows = run.result.protocols[i].per_scenario;
      ASSERT_EQ(rows.size(), run.outcome.completed_units - run.outcome.error_count)
          << protocols[i].name << " @ " << threads;
      for (std::size_t s = 0, row = 0; s < scenarios.size(); ++s) {
        if (s == 3) continue;
        EXPECT_EQ(rows[row++], clean.protocols[i].per_scenario[s])
            << protocols[i].name << " scenario " << s << " @ " << threads;
      }
      EXPECT_EQ(run.result.protocols[i].total_load, survivor_run.protocols[i].total_load)
          << protocols[i].name << " @ " << threads;
      EXPECT_EQ(run.result.protocols[i].rerouted_flows,
                survivor_run.protocols[i].rerouted_flows)
          << protocols[i].name << " @ " << threads;
    }
  }
}

TEST(TrafficResilience, ThrowingFormNestsTheOriginalException) {
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto demand = traffic::uniform_demand(g, 1e4);
  const auto plan = CapacityPlan::uniform(g, 1e4);
  const auto scenarios = net::all_single_failures(g);
  const graph::EdgeId edge = scenarios[3].elements().front();
  const std::vector<analysis::NamedFactory> protocols = {
      suite.reconvergence(), throwing_on(edge, suite.pr())};

  for (const std::size_t threads : {1U, 2U, 8U}) {
    sim::SweepExecutor executor(threads);
    try {
      (void)analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                             executor);
      FAIL() << "expected SweepUnitError @ " << threads;
    } catch (const sim::SweepUnitError& e) {
      EXPECT_EQ(e.unit(), 3u) << threads;
      EXPECT_NE(std::string(e.what()).find("factory refuses edge"), std::string::npos);
      // The factory's own exception rides along as the nested exception.
      bool nested_seen = false;
      try {
        std::rethrow_if_nested(e);
      } catch (const std::logic_error& inner) {
        nested_seen = true;
        EXPECT_NE(std::string(inner.what()).find("factory refuses edge"),
                  std::string::npos);
      }
      EXPECT_TRUE(nested_seen) << threads;
    }
  }
}

}  // namespace
}  // namespace pr
