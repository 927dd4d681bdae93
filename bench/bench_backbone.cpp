// Backbone-scale failure-sweep scaling: nodes x threads x batch width.
//
// The paper's sweeps run on ~10-50 node research topologies; this bench asks
// what the same machinery costs at ISP scale.  Hierarchical core/agg/edge
// topologies from graph::hierarchical_isp (256 / 1k / 4k routers) are swept
// with sampled single-link failure scenarios three ways:
//
//   1. repair drives: the batched destination-tree drive (orphan subtrees
//      found through the pristine children index, sparse row restores)
//      against the per-destination legacy drive (dense column restores),
//      bit-identity checked before anything is timed
//      ("repair_speedup" per scale);
//   2. threads: the same scenario set through SweepExecutor worker pools of
//      1/2/4/8 threads, each worker repairing on its own warm
//      ScenarioRoutingCache, digests checked identical across pool sizes on
//      1 + R untimed passes, which look each scenario up a second time and
//      require the cache's memo to serve it; timed passes then run repair
//      alone until at least 1 s has passed ("speedup" is against the
//      1-thread point);
//   3. batch width: scenarios amortised per fresh cache (widths 1/4/16/64),
//      pricing the pristine build + incremental-state preparation against
//      the steady-state repair cost it unlocks.
//
// Emits BENCH_backbone.json (also printed):
//
//   {
//     "bench": "backbone", "repetitions": R, "scenarios_requested": S,
//     "scales": [ { "name": "isp-1024", "nodes": N, "links": M,
//         "scenarios": s, "table_mb": ..., "legacy_ms": ...,
//         "batched_ms": ..., "repair_speedup": ...,
//         "scenarios_per_second": ...,
//         "threads": [ { "threads": T, "ms": ..., "speedup": ... }, ... ],
//         "batch_width": [ { "width": W, "per_scenario_ms": ... }, ... ],
//         "phase_ms": { "verify": ..., "legacy": ..., "batched": ...,
//           "threads": ..., "batch_width": ... }, "peak_rss_mb": ... },
//       ... ],
//     "largest_scale_repair_speedup": ...,
//     "telemetry": { "cache_hit_rate": ..., "repair_fraction": ...,
//       "counters": {...}, "phases": {...}, "per_worker": [...] },
//     "peak_rss_mb": ...
//   }
//
// Each scale row carries its own peak-RSS watermark and per-phase wall times
// (verify / legacy / batched / threads / batch-width), so a memory or time
// blow-up is attributable to a scale and phase, not just the process total.
// The telemetry section aggregates obs counters from the thread-curve
// executors' untimed passes (cache hit rate, SPF repair fraction, per-worker
// utilization over those passes' wall time); the memo's second lookups are
// about half of its cache lookups and nearly all of its hits.
//
// Repair-drive timings are the best of R repetitions.  A thread point's "ms"
// is the mean pass over the scenario set, from whole passes run back to back
// for at least 1 s; batch-width curves are cold-start by design and measured
// once.
//
//   $ ./bench_backbone [max nodes 256..8192] [scenarios 1..1024]
//                      [repetitions 1..100] [threads 0..N]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "graph/spf_workspace.hpp"
#include "obs/telemetry.hpp"
#include "route/routing_db.hpp"
#include "route/scenario_cache.hpp"
#include "sim/parallel_sweep.hpp"
#include "util/atomic_file.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace pr;

/// Shortest timed run behind each thread-curve point.
constexpr double kMinThreadPointMs = 1000.0;

double best_ms(std::size_t repetitions, const std::function<void()>& work) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    const auto start = Clock::now();
    work();
    const auto ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
            .count());
    best = std::min(best, ns / 1e6);
  }
  return best;
}

double once_ms(const std::function<void()>& work) { return best_ms(1, work); }

double elapsed_ms(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                 Clock::now() - start)
                                 .count()) /
         1e3;
}

/// Sampled-row digest of a routing table: cheap enough to run per scenario
/// inside timed loops, sensitive enough that any next-hop or hop-count
/// divergence at the sampled rows changes it.  It leaves out
/// max_discriminator(), a whole-table scan; require_identical compares that
/// on the deep checks.  FNV-1a.
std::uint64_t table_digest(const route::RoutingDb& db) {
  const std::size_t n = db.graph().node_count();
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  const std::size_t stride = std::max<std::size_t>(1, n / 61);
  for (graph::NodeId dest = 0; dest < n; dest += stride) {
    for (graph::NodeId at = 0; at < n; at += stride) {
      mix(db.next_dart(at, dest));
      mix(db.hops(at, dest));
    }
  }
  return h;
}

void require_identical(const route::RoutingDb& got, const route::RoutingDb& want,
                       const std::string& where) {
  const std::size_t n = got.graph().node_count();
  for (graph::NodeId dest = 0; dest < n; ++dest) {
    for (graph::NodeId at = 0; at < n; ++at) {
      if (got.next_dart(at, dest) != want.next_dart(at, dest) ||
          got.cost(at, dest) != want.cost(at, dest) ||
          got.hops(at, dest) != want.hops(at, dest)) {
        throw std::runtime_error("repair drive diverged from oracle: " + where);
      }
    }
  }
  if (got.max_discriminator() != want.max_discriminator()) {
    throw std::runtime_error("max discriminator diverged: " + where);
  }
}

/// Distinct sampled single-link failure scenarios.
std::vector<graph::EdgeSet> sample_single_link(const graph::Graph& g,
                                               std::size_t count, graph::Rng& rng) {
  std::set<graph::EdgeId> picked;
  while (picked.size() < std::min(count, g.edge_count())) {
    picked.insert(static_cast<graph::EdgeId>(rng.below(g.edge_count())));
  }
  std::vector<graph::EdgeSet> scenarios;
  scenarios.reserve(picked.size());
  for (const graph::EdgeId e : picked) {
    graph::EdgeSet s(g.edge_count());
    s.insert(e);
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_nodes = 4096;
  std::size_t scenario_count = 48;
  std::size_t repetitions = 3;
  std::size_t threads_cap = 0;  // 0 = up to 8 / hardware
  bool args_ok =
      (argc <= 1 ||
       (sim::parse_count_arg(argv[1], 8192, max_nodes) && max_nodes >= 256)) &&
      (argc <= 2 ||
       (sim::parse_count_arg(argv[2], 1024, scenario_count) && scenario_count > 0)) &&
      (argc <= 3 ||
       (sim::parse_count_arg(argv[3], 100, repetitions) && repetitions > 0));
  if (args_ok && argc > 4) {
    try {
      threads_cap = sim::threads_from_arg(argc, argv, 4);
    } catch (const std::invalid_argument&) {
      args_ok = false;
    }
  }
  if (!args_ok || argc > 5) {
    std::cerr << "usage: bench_backbone [max nodes 256..8192] [scenarios 1..1024] "
                 "[repetitions 1..100] [threads 0..N]\n";
    return 1;
  }

  std::vector<std::size_t> scales;
  for (const std::size_t s : {256U, 1024U, 4096U}) {
    if (s <= max_nodes) scales.push_back(s);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"backbone\",\n  \"repetitions\": " << repetitions
       << ",\n  \"scenarios_requested\": " << scenario_count
       << ",\n  \"scales\": [";

  double largest_speedup = 0.0;
  // Shared across scales: the thread-curve executors' untimed passes
  // attribute SPF repairs, cache builds, and per-worker busy time into this
  // registry; the aggregate becomes the JSON telemetry section.  elapsed
  // accumulates those passes' wall time so per-worker utilization has a
  // denominator.
  obs::Registry registry;
  double telemetry_elapsed_ms = 0.0;
  bool first_scale = true;
  for (const std::size_t target : scales) {
    graph::Rng topo_rng(0xB0B0 + target);
    const graph::IspTopology isp =
        graph::hierarchical_isp(graph::sized_isp_params(target), topo_rng);
    const graph::Graph& g = isp.graph;
    const std::size_t n = g.node_count();

    graph::Rng scenario_rng(0x5EED0 + target);
    const auto scenarios = sample_single_link(g, scenario_count, scenario_rng);

    // Bit-identity first: batched == legacy == from-scratch.  Full-table
    // oracle compares are O(n^2) each with a fresh n-Dijkstra build, so the
    // deep check covers every scenario at small scale and a prefix above.
    route::RoutingDb batched_db(g);
    route::RoutingDb legacy_db(g);
    graph::SpfWorkspace ws;
    graph::SpfWorkspace legacy_ws;
    const auto verify_t0 = Clock::now();
    const std::size_t deep = n <= 512 ? scenarios.size()
                                      : std::min<std::size_t>(2, scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      batched_db.rebuild(scenarios[i], ws, route::RepairDrive::kBatchedTrees);
      legacy_db.rebuild(scenarios[i], legacy_ws, route::RepairDrive::kPerDestination);
      const std::string where =
          "isp-" + std::to_string(target) + " scenario " + std::to_string(i);
      if (i < deep) {
        const route::RoutingDb fresh(g, &scenarios[i]);
        require_identical(batched_db, fresh, where + " (vs scratch)");
        require_identical(legacy_db, fresh, where + " (legacy vs scratch)");
      } else if (table_digest(batched_db) != table_digest(legacy_db)) {
        throw std::runtime_error("drive digests diverged: " + where);
      }
    }

    const double verify_wall_ms = elapsed_ms(verify_t0);

    // Repair-drive throughput: whole scenario set per timing, warm state.
    const auto legacy_t0 = Clock::now();
    const double legacy_ms = best_ms(repetitions, [&] {
      for (const auto& s : scenarios) {
        legacy_db.rebuild(s, legacy_ws, route::RepairDrive::kPerDestination);
      }
    });
    const double legacy_wall_ms = elapsed_ms(legacy_t0);
    const auto batched_t0 = Clock::now();
    const double batched_ms = best_ms(repetitions, [&] {
      for (const auto& s : scenarios) {
        batched_db.rebuild(s, ws, route::RepairDrive::kBatchedTrees);
      }
    });
    const double batched_wall_ms = elapsed_ms(batched_t0);
    const double speedup = batched_ms > 0 ? legacy_ms / batched_ms : 0.0;
    largest_speedup = speedup;  // scales ascend; last write wins
    const double scen_per_s =
        batched_ms > 0 ? static_cast<double>(scenarios.size()) * 1000.0 / batched_ms
                       : 0.0;

    json << (first_scale ? "" : ",") << "\n    { \"name\": \"isp-" << target
         << "\", \"nodes\": " << n << ", \"links\": " << g.edge_count()
         << ", \"scenarios\": " << scenarios.size() << ",\n      \"table_mb\": "
         << static_cast<double>(batched_db.bytes()) / (1024.0 * 1024.0)
         << ", \"legacy_ms\": " << legacy_ms << ", \"batched_ms\": " << batched_ms
         << ",\n      \"repair_speedup\": " << speedup
         << ", \"scenarios_per_second\": " << scen_per_s;
    first_scale = false;
    std::cerr << "isp-" << target << " (" << n << " nodes): repair speedup "
              << speedup << "x, " << scen_per_s << " scenarios/s\n";

    // Thread-scaling curve.  Each worker owns a full warm RoutingDb, so the
    // pool memory is threads * table_mb -- priced out above 1k nodes.
    double threads_wall_ms = 0.0;
    if (n <= 1024) {
      const auto threads_t0 = Clock::now();
      std::vector<std::uint64_t> serial_digests(scenarios.size());
      {
        route::ScenarioRoutingCache cache;
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
          serial_digests[i] = table_digest(cache.tables(g, scenarios[i]));
        }
      }

      json << ",\n      \"threads\": [";
      double one_thread_ms = 0.0;
      for (const std::size_t threads : {1U, 2U, 4U, 8U}) {
        if (threads_cap != 0 && threads > threads_cap) break;
        sim::SweepExecutor executor(threads);
        // Untimed: a warm-up pass and R more on warm worker caches, every
        // pass's digests checked.  Only these passes feed the telemetry, so
        // it counts 1 + R passes per point, as the committed
        // BENCH_backbone.json baseline does.
        executor.set_telemetry(sim::SweepTelemetry{&registry, nullptr, nullptr});
        std::vector<std::uint64_t> digests(scenarios.size(), 0);
        const auto sweep = [&](std::size_t unit, sim::WorkerContext& ctx) {
          const route::RoutingDb& db = ctx.routes.tables(g, scenarios[unit]);
          digests[unit] = table_digest(db);
          // A driver prices one scenario under two reconverging protocols
          // through this memo, so a second lookup must hit it: the telemetry's
          // cache hits count these lookups, not scheduling accidents.
          const std::uint64_t hits = ctx.routes.hits();
          if (&ctx.routes.tables(g, scenarios[unit]) != &db ||
              ctx.routes.hits() != hits + 1) {
            throw std::logic_error("ScenarioRoutingCache did not reuse scenario " +
                                   std::to_string(unit) + "'s tables");
          }
        };
        const auto verify_t0 = Clock::now();
        for (std::size_t pass = 0; pass <= repetitions; ++pass) {
          executor.run(scenarios.size(), sweep);
          if (digests != serial_digests) {
            throw std::runtime_error("parallel sweep digests diverged at " +
                                     std::to_string(threads) + " threads");
          }
        }
        telemetry_elapsed_ms += elapsed_ms(verify_t0);
        executor.set_telemetry(sim::SweepTelemetry{});

        // Timed: repair alone, whole passes back to back for at least 1 s.
        const auto repair = [&](std::size_t unit, sim::WorkerContext& ctx) {
          (void)ctx.routes.tables(g, scenarios[unit]);
        };
        const auto timed_t0 = Clock::now();
        std::size_t passes = 0;
        double ms = 0.0;
        while (ms < kMinThreadPointMs) {
          executor.run(scenarios.size(), repair);
          ++passes;
          ms = elapsed_ms(timed_t0);
        }
        ms /= static_cast<double>(passes);
        if (threads == 1) one_thread_ms = ms;
        json << (threads == 1 ? "" : ",") << "\n        { \"threads\": " << threads
             << ", \"ms\": " << ms << ", \"speedup\": " << one_thread_ms / ms
             << " }";
      }
      json << "\n      ]";
      threads_wall_ms = elapsed_ms(threads_t0);
    }

    // Batch-width amortisation: a fresh cache pays the pristine build plus
    // incremental-state preparation once, then each further scenario in the
    // batch costs only its repair.  Cold by construction, measured once.
    const auto width_t0 = Clock::now();
    json << ",\n      \"batch_width\": [";
    bool first_width = true;
    for (const std::size_t width : {1U, 4U, 16U, 64U}) {
      const std::size_t w = std::min(width, scenarios.size());
      const double total = once_ms([&] {
        route::ScenarioRoutingCache cache;
        for (std::size_t i = 0; i < w; ++i) {
          if (cache.tables(g, scenarios[i]).graph().node_count() != n) {
            throw std::logic_error("bad table");
          }
        }
      });
      json << (first_width ? "" : ",") << "\n        { \"width\": " << w
           << ", \"per_scenario_ms\": " << total / static_cast<double>(w) << " }";
      first_width = false;
      if (w < width) break;  // scenario set exhausted
    }
    json << "\n      ]";

    // Per-scale attribution: phase wall times (total wall spent in a section,
    // repetitions included -- not the best-of timing above) and the RSS
    // watermark after this scale finished.
    json << ",\n      \"phase_ms\": { \"verify\": " << verify_wall_ms
         << ", \"legacy\": " << legacy_wall_ms << ", \"batched\": "
         << batched_wall_ms << ", \"threads\": " << threads_wall_ms
         << ", \"batch_width\": " << elapsed_ms(width_t0)
         << " },\n      \"peak_rss_mb\": " << peak_rss_mb() << " }";
  }

  json << "\n  ],\n  \"largest_scale_repair_speedup\": " << largest_speedup
       << ",\n  \"telemetry\": " << obs::telemetry_json(registry, telemetry_elapsed_ms)
       << ",\n  \"peak_rss_mb\": " << peak_rss_mb() << "\n}\n";

  std::cout << json.str();
  util::atomic_write_file("BENCH_backbone.json", json.str());
  std::cerr << "wrote BENCH_backbone.json (largest-scale repair speedup: "
            << largest_speedup << "x, peak RSS " << peak_rss_mb() << " MB)\n";
  return 0;
}
