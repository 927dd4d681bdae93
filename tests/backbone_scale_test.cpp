// Backbone-scale memory/tractability assertions: a 4k-router hierarchical
// ISP must support a cached single-link sweep and an event-sim convergence
// episode under hard memory ceilings -- the O(n^2) regime the batched repair
// drive and the IGP's shared cache + FIB exist for.  Excluded from the TSan CI
// regex (single-threaded, and sized for the Release / ASan tiers).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/event_sim.hpp"
#include "net/failure_model.hpp"
#include "route/igp.hpp"
#include "route/routing_db.hpp"
#include "route/scenario_cache.hpp"

namespace pr {
namespace {

using graph::EdgeSet;
using graph::Graph;
using graph::NodeId;
using route::RoutingDb;

/// Full 4k only on optimised builds; the Debug/sanitizer CI tiers run the
/// same assertions at 1k so the 300 s ctest timeout holds at -O0.
constexpr std::size_t kScaleNodes =
#ifdef NDEBUG
    4096;
#else
    1024;
#endif

TEST(BackboneScale, CachedSingleLinkSweepUnderMemoryCeiling) {
  graph::Rng rng(0x5CA1E);
  const graph::IspTopology isp =
      graph::hierarchical_isp(graph::sized_isp_params(kScaleNodes), rng);
  const Graph& g = isp.graph;
  const std::size_t n = g.node_count();
  ASSERT_GE(n, kScaleNodes * 8 / 10);

  route::ScenarioRoutingCache cache;
  EdgeSet failures(g.edge_count());
  std::uint64_t probe = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    failures.clear();
    failures.insert(static_cast<graph::EdgeId>(rng.below(g.edge_count())));
    const RoutingDb& db = cache.tables(g, failures);
    // Touch a few rows so the sweep is not optimised away.
    probe += db.hops(static_cast<NodeId>(i % n), static_cast<NodeId>((i * 7) % n));
    // Live columns + pristine snapshot + rebuild indices all scale as n^2
    // with small constants; 60 B/entry is ~35% headroom over the measured
    // footprint.  The former per-scenario fresh-build path held TWO full
    // table sets at peak and the event-sim held n of them.
    EXPECT_LT(db.bytes(), 60U * n * n);
  }
  EXPECT_GT(probe, 0U);

  // One scratch-oracle spot check at scale: sampled rows, exact equality.
  failures.clear();
  failures.insert(0);
  const RoutingDb& repaired = cache.tables(g, failures);
  const RoutingDb fresh(g, &failures);
  for (NodeId at = 0; at < n; at += 97) {
    for (NodeId dest = 0; dest < n; dest += 101) {
      ASSERT_EQ(repaired.next_dart(at, dest), fresh.next_dart(at, dest));
      ASSERT_EQ(repaired.cost(at, dest), fresh.cost(at, dest));
    }
  }
}

TEST(BackboneScale, IgpConvergesWithCowOverlaysUnderMemoryCeiling) {
  graph::Rng rng(0xC0DE);
  const graph::IspTopology isp =
      graph::hierarchical_isp(graph::sized_isp_params(kScaleNodes), rng);
  Graph g = isp.graph;  // the fixture owns its copy
  const std::size_t n = g.node_count();

  net::Network network(g);
  net::Simulator sim;
  route::LinkStateIgp igp(sim, network);

  const graph::EdgeId victim = 0;  // a core ring link: every tier reroutes
  sim.at(0.0, [&] {
    network.fail_link(victim);
    igp.on_link_failure(victim);
  });
  sim.run();
  ASSERT_TRUE(igp.fully_converged());
  EXPECT_GT(igp.spf_runs(), 0U);

  // The whole point: n routers' worth of state in one shared db plus a 4 B
  // FIB entry per (router, destination).  Giving every router its own
  // RoutingDb would hold n full (next, dist, hops) column sets -- 16 B * n^2
  // PER ROUTER.
  const std::size_t naive_copies = n * (n * n * 16);
  const std::size_t cow = igp.table_bytes();
  EXPECT_GT(cow, 0U);
  EXPECT_LT(cow, naive_copies / 50);
  EXPECT_LT(cow, 80U * n * n);  // absolute: ~1.3 GB at 4k, ~84 MB at 1k
}

}  // namespace
}  // namespace pr
