// Backbone-sweep equivalence suite: the batched tree-repair drive of
// RoutingDb::rebuild must be BIT-identical to both the legacy per-destination
// drive and the from-scratch oracle across generators, partitioning failure
// sets and scenario sequences; cached sweeps must be bit-identical at any
// thread count; LFA alternates derived over repaired tables must equal a
// fresh per-scenario derivation; and the IGP's shared cache plus per-router
// FIB rows must forward exactly like full per-router tables while costing a
// fraction of their memory.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/protocols.hpp"
#include "analysis/stretch.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "graph/spf_workspace.hpp"
#include "net/event_sim.hpp"
#include "net/failure_model.hpp"
#include "net/forwarding.hpp"
#include "route/igp.hpp"
#include "route/lfa.hpp"
#include "route/routing_db.hpp"
#include "route/scenario_cache.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

namespace pr {
namespace {

using graph::EdgeId;
using graph::EdgeSet;
using graph::Graph;
using graph::NodeId;
using route::DiscriminatorKind;
using route::RepairDrive;
using route::RoutingDb;

/// Bit-identical table comparison: exact double equality (infinities
/// included), no tolerance -- the repair contract is exactness.
void expect_identical_tables(const RoutingDb& actual, const RoutingDb& expected,
                             const std::string& context) {
  const std::size_t n = actual.graph().node_count();
  for (NodeId dest = 0; dest < n; ++dest) {
    for (NodeId at = 0; at < n; ++at) {
      ASSERT_EQ(actual.next_dart(at, dest), expected.next_dart(at, dest))
          << context << ": next_dart(" << at << ", " << dest << ")";
      ASSERT_EQ(actual.cost(at, dest), expected.cost(at, dest))
          << context << ": dist(" << at << ", " << dest << ")";
      ASSERT_EQ(actual.hops(at, dest), expected.hops(at, dest))
          << context << ": hops(" << at << ", " << dest << ")";
    }
  }
  ASSERT_EQ(actual.max_discriminator(), expected.max_discriminator()) << context;
}

/// Order-sensitive FNV-1a digest of a whole table -- collapses the
/// bit-identity contract into one comparable word per scenario for the
/// thread-determinism sweeps.
std::uint64_t table_digest(const RoutingDb& db) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  const std::size_t n = db.graph().node_count();
  for (NodeId dest = 0; dest < n; ++dest) {
    for (NodeId at = 0; at < n; ++at) {
      mix(db.next_dart(at, dest));
      mix(std::bit_cast<std::uint64_t>(db.cost(at, dest)));
      mix(db.hops(at, dest));
    }
  }
  mix(db.max_discriminator());
  return h;
}

std::vector<EdgeSet> scenario_sequence(const Graph& g, graph::Rng& rng) {
  // Singles, pairs and triples -- the latter two routinely partition the
  // sparser generators, exercising unreachable-orphan restores.
  std::vector<EdgeSet> seq = net::sample_any_failures(g, 1, 6, rng);
  for (auto& s : net::sample_any_failures(g, 2, 6, rng)) seq.push_back(std::move(s));
  for (auto& s : net::sample_any_failures(g, 3, 4, rng)) seq.push_back(std::move(s));
  seq.emplace_back(g.edge_count());  // empty set: pristine restore mid-sequence
  for (auto& s : net::sample_any_failures(g, 2, 4, rng)) seq.push_back(std::move(s));
  return seq;
}

TEST(BatchedRepair, BothDrivesMatchScratchOracleAcrossGenerators) {
  graph::Rng rng(0xB0B);
  graph::IspParams small_isp;
  small_isp.core = 4;
  small_isp.aggs_per_core = 2;
  small_isp.edges_per_agg = 2;
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("r2ec", graph::random_two_edge_connected(18, 14, rng));
  graphs.emplace_back("erdos", graph::erdos_renyi(16, 0.25, rng));
  graphs.emplace_back("isp", graph::hierarchical_isp(small_isp, rng).graph);
  graphs.emplace_back("abilene", topo::abilene());

  for (const auto& [name, g] : graphs) {
    RoutingDb batched(g);
    RoutingDb legacy(g);
    graph::SpfWorkspace ws;
    for (const auto& failures : scenario_sequence(g, rng)) {
      batched.rebuild(failures, ws);  // default drive: kBatchedTrees
      legacy.rebuild(failures, ws, RepairDrive::kPerDestination);
      const RoutingDb fresh(g, failures.empty() ? nullptr : &failures);
      expect_identical_tables(batched, fresh, name + " batched");
      expect_identical_tables(legacy, fresh, name + " legacy");
    }
  }
}

TEST(BatchedRepair, WeightedDiscriminatorsAndFractionalWeights) {
  graph::Rng rng(0x31337);
  Graph g = graph::random_two_edge_connected(14, 10, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    g.set_edge_weight(e, 1.0 + static_cast<double>(rng.below(4)));
  }
  RoutingDb db(g, nullptr, DiscriminatorKind::kWeightedCost);
  graph::SpfWorkspace ws;
  for (const auto& failures : net::all_single_failures(g)) {
    db.rebuild(failures, ws);
    expect_identical_tables(db, RoutingDb(g, &failures, DiscriminatorKind::kWeightedCost),
                            "weighted");
  }

  // Fractional weights under the hop discriminator: repairs follow cost while
  // the discriminator follows hops, and a regrown row can gain or lose hops.
  Graph h = graph::random_two_edge_connected(14, 10, rng);
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    h.set_edge_weight(e, 0.5 + rng.unit());
  }
  RoutingDb hdb(h);
  for (const auto& failures : net::all_single_failures(h)) {
    hdb.rebuild(failures, ws);
    expect_identical_tables(hdb, RoutingDb(h, &failures), "fractional");
  }
}

TEST(BatchedRepair, SharedWorkspaceInterleavedAcrossDbs) {
  // One workspace driving two dbs of different sizes in alternation: the
  // epoch-stamped scratch must never leak orphan marks between trees, graphs
  // or calls.
  graph::Rng rng(0xAB);
  const Graph a = graph::random_two_edge_connected(12, 8, rng);
  const Graph b = graph::random_two_edge_connected(20, 16, rng);
  RoutingDb da(a);
  RoutingDb db_b(b);
  graph::SpfWorkspace ws;
  const auto fa = net::sample_any_failures(a, 2, 8, rng);
  const auto fb = net::sample_any_failures(b, 2, 8, rng);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    da.rebuild(fa[i], ws);
    db_b.rebuild(fb[i], ws);
    expect_identical_tables(da, RoutingDb(a, &fa[i]), "interleaved a");
    expect_identical_tables(db_b, RoutingDb(b, &fb[i]), "interleaved b");
  }
}

TEST(SweepDeterminism, CachedScenarioSweepBitIdenticalAcrossThreadCounts) {
  const Graph g = topo::geant();
  const auto scenarios = net::all_single_failures(g);

  // Serial from-scratch oracle digests.
  std::vector<std::uint64_t> oracle(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    oracle[i] = table_digest(RoutingDb(g, &scenarios[i]));
  }

  for (const std::size_t threads : {1U, 2U, 8U}) {
    sim::SweepExecutor executor(threads);
    std::vector<std::uint64_t> got(scenarios.size(), 0);
    executor.run(scenarios.size(), [&](std::size_t unit, sim::WorkerContext& ctx) {
      got[unit] = table_digest(ctx.routes.tables(g, scenarios[unit]));
    });
    EXPECT_EQ(got, oracle) << threads << " threads";
  }
}

void expect_identical_alternates(const route::LfaRouting& actual,
                                 const route::LfaRouting& expected,
                                 const Graph& g, const std::string& context) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      ASSERT_EQ(actual.alternate(v, t), expected.alternate(v, t))
          << context << ": alternate(" << v << ", " << t << ")";
    }
  }
}

// Node-protecting alternates read a third column (the primary next hop's),
// so both kinds are checked over every rebuilt db of a sequence that
// partitions the graph and returns to pristine mid-way.
TEST(LfaIncremental, AlternatesOverRebuiltTablesMatchFreshDerivation) {
  graph::Rng rng(0xFA);
  for (const route::LfaKind kind :
       {route::LfaKind::kLinkProtecting, route::LfaKind::kNodeProtecting}) {
    const Graph g = graph::random_two_edge_connected(14, 10, rng);
    RoutingDb db(g);
    graph::SpfWorkspace ws;
    for (const auto& failures : scenario_sequence(g, rng)) {
      db.rebuild(failures, ws);
      const route::LfaRouting got(db, kind);
      const RoutingDb fresh(g, failures.empty() ? nullptr : &failures);
      const route::LfaRouting want(fresh, kind);
      expect_identical_alternates(got, want, g, "rebuilt tables");
      ASSERT_DOUBLE_EQ(got.alternate_coverage(), want.alternate_coverage());
    }
  }
}

struct IgpFixture {
  explicit IgpFixture(graph::Graph graph)
      : g(std::move(graph)), network(g), igp(sim, network) {}

  void fail(EdgeId e) {
    network.fail_link(e);
    igp.on_link_failure(e);
  }

  graph::Graph g;
  net::Network network;
  net::Simulator sim;
  route::LinkStateIgp igp;
};

TEST(CowOverlay, IgpForwardsLikeFullPerRouterTablesAfterConvergence) {
  IgpFixture fx(topo::geant());
  const std::size_t n = fx.g.node_count();
  fx.sim.at(0.0, [&] { fx.fail(0); });
  fx.sim.at(1.0, [&] { fx.fail(7); });
  fx.sim.run();
  ASSERT_TRUE(fx.igp.fully_converged());

  // Oracle: the former design's per-router state after convergence -- a full
  // RoutingDb built with the complete failure set.
  const RoutingDb truth(fx.g, &fx.network.failed_links());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto trace = net::route_packet(fx.network, fx.igp.protocol(), s, t);
      if (truth.reachable(s, t)) {
        ASSERT_TRUE(trace.delivered()) << s << "->" << t;
        ASSERT_DOUBLE_EQ(trace.cost, truth.cost(s, t)) << s << "->" << t;
      } else {
        ASSERT_FALSE(trace.delivered()) << s << "->" << t;
      }
    }
  }

  // The cache db plus the n x n FIB must be a small multiple of ONE shared
  // table set, far from n full per-router copies.
  const std::size_t one_db_live = n * n * 16;  // next(4) + dist(8) + hops(4)
  const std::size_t naive_copies = n * one_db_live;
  EXPECT_GT(fx.igp.table_bytes(), 0U);
  EXPECT_LT(fx.igp.table_bytes(), naive_copies / 4);
}

// The post-convergence LFA factory's two paths -- fresh per-scenario tables
// (`make`) and alternates over the cache's repaired tables (`make_cached`)
// -- must produce identical sweep results; and unlike the pristine-table
// variant the alternates really do track the scenario.
TEST(LfaIncremental, PostConvergenceFactoryPathsAgree) {
  const Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);

  std::vector<analysis::NamedFactory> fresh = {suite.lfa_post_convergence()};
  ASSERT_TRUE(fresh[0].make_cached != nullptr);
  fresh[0].make_cached = nullptr;  // forces the fresh-tables path
  const std::vector<analysis::NamedFactory> cached = {suite.lfa_post_convergence()};

  const auto fresh_result = analysis::run_stretch_experiment(g, scenarios, fresh);
  const auto cached_result = analysis::run_stretch_experiment(g, scenarios, cached);
  ASSERT_EQ(fresh_result.protocols.size(), cached_result.protocols.size());
  const auto& f = fresh_result.protocols[0];
  const auto& c = cached_result.protocols[0];
  EXPECT_EQ(f.delivered, c.delivered);
  EXPECT_EQ(f.dropped_reachable, c.dropped_reachable);
  EXPECT_EQ(f.dropped_partitioned, c.dropped_partitioned);
  EXPECT_EQ(f.stretches, c.stretches);  // bit-exact doubles

  // Post-convergence alternates come from converged tables, so delivery must
  // be at least as good as the pristine-table variant's on the same sweep.
  const auto pristine_result =
      analysis::run_stretch_experiment(g, scenarios, {suite.lfa()});
  EXPECT_GE(c.delivered, pristine_result.protocols[0].delivered);
}

}  // namespace
}  // namespace pr
