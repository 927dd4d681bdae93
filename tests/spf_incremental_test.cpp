// Incremental-SPF equivalence suite: RoutingDb::rebuild (delta repair via
// graph::SpfWorkspace) must be BIT-identical -- next_dart, dist and hops, for
// every (at, dest) pair -- to constructing a fresh RoutingDb with the same
// failure set excluded, across randomized topologies, single/multi-link and
// partitioning failure sets, and arbitrary rebuild sequences; and rebuilding
// with the empty set must restore the pristine tables exactly.
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "graph/spf_workspace.hpp"
#include "net/failure_model.hpp"
#include "route/routing_db.hpp"
#include "route/scenario_cache.hpp"
#include "topo/topologies.hpp"

namespace pr {
namespace {

using graph::EdgeId;
using graph::EdgeSet;
using graph::Graph;
using graph::NodeId;
using route::DiscriminatorKind;
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
  EXPECT_EQ(actual.max_discriminator(), expected.max_discriminator()) << context;
}

EdgeSet failure_set(const Graph& g, std::initializer_list<EdgeId> edges) {
  EdgeSet s(g.edge_count());
  for (const EdgeId e : edges) s.insert(e);
  return s;
}

/// Brute-force reference for max_discriminator: a per-pair loop through
/// reachable() and discriminator() instead of one pass over the columns.
std::uint32_t brute_force_max_discriminator(const RoutingDb& db) {
  std::uint32_t best = 0;
  const std::size_t n = db.graph().node_count();
  for (NodeId dest = 0; dest < n; ++dest) {
    for (NodeId at = 0; at < n; ++at) {
      if (db.reachable(at, dest)) best = std::max(best, db.discriminator(at, dest));
    }
  }
  return best;
}

TEST(SpfWorkspace, FullBuildMatchesReferenceDijkstra) {
  graph::Rng rng(0x51);
  for (int round = 0; round < 5; ++round) {
    Graph g = graph::random_two_edge_connected(14, 10, rng);
    // Integer random weights exercise cost ties with differing hop counts.
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      g.set_edge_weight(e, 1.0 + static_cast<double>(rng.below(3)));
    }
    graph::SpfWorkspace ws;
    std::vector<graph::Weight> dist(g.node_count());
    std::vector<std::uint32_t> hops(g.node_count());
    std::vector<graph::DartId> next(g.node_count());
    for (NodeId dest = 0; dest < g.node_count(); ++dest) {
      ws.full_build(g, dest, nullptr, dist.data(), hops.data(), next.data());
      const auto spt = graph::shortest_paths_to(g, dest);
      EXPECT_EQ(dist, spt.dist);
      EXPECT_EQ(hops, spt.hops);
      EXPECT_EQ(next, spt.next_dart);
    }
  }
}

TEST(SpfIncremental, SingleFailuresBitIdenticalOnRandomGraphs) {
  graph::Rng rng(0xBEEF);
  for (int round = 0; round < 4; ++round) {
    const Graph g = graph::random_two_edge_connected(16, 12, rng);
    RoutingDb db(g);
    graph::SpfWorkspace ws;
    for (const auto& failures : net::all_single_failures(g)) {
      db.rebuild(failures, ws);
      const RoutingDb fresh(g, &failures);
      expect_identical_tables(db, fresh, "single failure");
    }
  }
}

TEST(SpfIncremental, MultiFailuresIncludingPartitions) {
  graph::Rng rng(0xD00D);
  for (int round = 0; round < 3; ++round) {
    // Erdos-Renyi graphs have bridges and low-degree nodes, so random 2- and
    // 3-subsets routinely partition the graph -- exactly the orphaned
    // subtrees that must stay unreachable after repair.
    const Graph g = graph::erdos_renyi(14, 0.25, rng);
    RoutingDb db(g);
    graph::SpfWorkspace ws;
    for (const std::size_t k : {2U, 3U}) {
      for (const auto& failures : net::sample_any_failures(g, k, 12, rng)) {
        db.rebuild(failures, ws);
        const RoutingDb fresh(g, &failures);
        expect_identical_tables(db, fresh, "multi failure k=" + std::to_string(k));
      }
    }
  }
}

TEST(SpfIncremental, PartitioningFailuresOnRing) {
  // Any two ring edges partition the cycle: the canonical orphan case.
  const Graph g = graph::ring(8);
  RoutingDb db(g);
  graph::SpfWorkspace ws;
  const EdgeSet failures = failure_set(g, {1, 5});
  db.rebuild(failures, ws);
  const RoutingDb fresh(g, &failures);
  expect_identical_tables(db, fresh, "ring partition");
  // Nodes across the cut really are unreachable now.
  EXPECT_FALSE(db.reachable(3, 7));
}

TEST(SpfIncremental, WeightedDiscriminatorAndFractionalWeights) {
  graph::Rng rng(0xF00D);
  // Integer weights with the weighted-cost discriminator...
  Graph g = graph::random_two_edge_connected(12, 8, rng);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    g.set_edge_weight(e, 1.0 + static_cast<double>(rng.below(4)));
  }
  RoutingDb db(g, nullptr, DiscriminatorKind::kWeightedCost);
  graph::SpfWorkspace ws;
  for (const auto& failures : net::all_single_failures(g)) {
    db.rebuild(failures, ws);
    const RoutingDb fresh(g, &failures, DiscriminatorKind::kWeightedCost);
    expect_identical_tables(db, fresh, "weighted discriminator");
  }
  // ...and fractional weights under the hop discriminator (cost ties at
  // non-integral values).
  Graph h = graph::random_two_edge_connected(12, 8, rng);
  for (EdgeId e = 0; e < h.edge_count(); ++e) {
    h.set_edge_weight(e, 0.5 + rng.unit());
  }
  RoutingDb hdb(h);
  for (const auto& failures : net::all_single_failures(h)) {
    hdb.rebuild(failures, ws);
    expect_identical_tables(hdb, RoutingDb(h, &failures), "fractional weights");
  }
}

TEST(SpfIncremental, RebuildSequencesAndPristineRestore) {
  graph::Rng rng(0xCAFE);
  const Graph g = graph::random_two_edge_connected(15, 10, rng);
  const RoutingDb pristine(g);
  RoutingDb db(g);
  graph::SpfWorkspace ws;

  // Arbitrary scenario sequence: each rebuild must land exactly on the
  // from-scratch tables for ITS failure set, regardless of history.
  std::vector<EdgeSet> sequence = net::sample_any_failures(g, 2, 8, rng);
  for (auto& s : net::sample_any_failures(g, 4, 4, rng)) sequence.push_back(std::move(s));
  for (const auto& failures : sequence) {
    db.rebuild(failures, ws);
    expect_identical_tables(db, RoutingDb(g, &failures), "sequence step");
  }

  // Reverting to the empty failure set restores the pristine tables exactly.
  db.rebuild(EdgeSet(g.edge_count()), ws);
  expect_identical_tables(db, pristine, "pristine restore");
}

TEST(SpfIncremental, RealTopologiesSingleFailures) {
  for (const auto& [name, g] :
       {std::pair{"abilene", topo::abilene()}, {"teleglobe", topo::teleglobe()},
        {"geant", topo::geant()}}) {
    RoutingDb db(g);
    graph::SpfWorkspace ws;
    for (const auto& failures : net::all_single_failures(g)) {
      db.rebuild(failures, ws);
      expect_identical_tables(db, RoutingDb(g, &failures), name);
    }
  }
}

TEST(SpfIncremental, MaxDiscriminatorMatchesBruteForce) {
  graph::Rng rng(0xACE);
  const Graph g = graph::random_two_edge_connected(14, 8, rng);
  RoutingDb db(g);
  EXPECT_EQ(db.max_discriminator(), brute_force_max_discriminator(db));
  graph::SpfWorkspace ws;
  for (const auto& failures : net::sample_any_failures(g, 2, 10, rng)) {
    db.rebuild(failures, ws);
    EXPECT_EQ(db.max_discriminator(), brute_force_max_discriminator(db));
  }
}

TEST(SpfIncremental, RebuildRejectsExcludedBaseline) {
  const Graph g = graph::ring(6);
  const EdgeSet baseline = failure_set(g, {0});
  RoutingDb db(g, &baseline);
  graph::SpfWorkspace ws;
  EXPECT_THROW(db.rebuild(failure_set(g, {1}), ws), std::logic_error);
  // An EMPTY baseline pointer counts as pristine and rebuilds fine.
  RoutingDb empty_baseline(g, nullptr);
  EXPECT_NO_THROW(empty_baseline.rebuild(failure_set(g, {1}), ws));
}

TEST(SpfIncremental, RebuildRejectsMutatedGraph) {
  // The repair mixes the pristine snapshot with the live graph, so mutating
  // the graph between rebuilds must fail loudly instead of silently
  // producing tables that match neither version.
  Graph g = graph::ring(6);
  RoutingDb db(g);
  graph::SpfWorkspace ws;
  EXPECT_NO_THROW(db.rebuild(failure_set(g, {0}), ws));
  g.add_edge(0, 3);
  EdgeSet failures(g.edge_count());
  failures.insert(1);
  EXPECT_THROW(db.rebuild(failures, ws), std::logic_error);
}

TEST(ScenarioRoutingCache, ServesBitIdenticalTablesAndCountsHits) {
  const Graph g = topo::abilene();
  route::ScenarioRoutingCache cache;

  const auto scenarios = net::all_single_failures(g);
  EXPECT_EQ(cache.pristine_builds(), 0U);
  for (const auto& failures : scenarios) {
    const RoutingDb& cached = cache.tables(g, failures);
    expect_identical_tables(cached, RoutingDb(g, &failures), "cache");
  }
  EXPECT_EQ(cache.pristine_builds(), 1U);
  EXPECT_EQ(cache.rebuilds(), scenarios.size());

  // Repeating the previous failure set verbatim is a hit (no rebuild), and
  // returns the same underlying db.
  const RoutingDb& again = cache.tables(g, scenarios.back());
  EXPECT_EQ(&again, &cache.tables(g, scenarios.back()));
  EXPECT_GE(cache.hits(), 2U);
  EXPECT_EQ(cache.rebuilds(), scenarios.size());

  // Switching graphs rebuilds the pristine db for the new one.
  const Graph h = topo::geant();
  const auto h_failures = net::all_single_failures(h);
  expect_identical_tables(cache.tables(h, h_failures.front()),
                          RoutingDb(h, &h_failures.front()), "cache after switch");
  EXPECT_EQ(cache.pristine_builds(), 2U);
}

TEST(ScenarioRoutingCache, SurvivesGraphAddressReuse) {
  // Regression: the cache must key on (address, structure_id), not address
  // alone.  A sweep over successive topologies destroys each graph before
  // building the next, and the allocator routinely hands the new Graph the
  // old one's address -- serving the stale tables there read out of bounds
  // (caught as a hang/ASan failure in bench_scaling).
  route::ScenarioRoutingCache cache;
  auto first = std::make_unique<Graph>(graph::ring(5));
  const EdgeSet first_failure = failure_set(*first, {0});
  expect_identical_tables(cache.tables(*first, first_failure),
                          RoutingDb(*first, &first_failure), "first graph");
  first.reset();

  // Larger graph, plausibly at the recycled address; must rebuild pristine.
  auto second = std::make_unique<Graph>(graph::ring(12));
  const EdgeSet second_failure = failure_set(*second, {3});
  expect_identical_tables(cache.tables(*second, second_failure),
                          RoutingDb(*second, &second_failure), "second graph");
  EXPECT_EQ(cache.pristine_builds(), 2U);

  // Mutating the same object (new edge) must also invalidate.
  const graph::EdgeId chord = second->add_edge(0, 6);
  EdgeSet chord_failure(second->edge_count());
  chord_failure.insert(chord);
  expect_identical_tables(cache.tables(*second, chord_failure),
                          RoutingDb(*second, &chord_failure), "after mutation");
  EXPECT_EQ(cache.pristine_builds(), 3U);
}

}  // namespace
}  // namespace pr
