// Shared driver for the six panels of the paper's Figure 2.
//
// Each panel binary picks a topology and a failure count; the driver samples
// (or enumerates) connectivity-preserving failure scenarios, routes every
// affected ordered pair under Re-convergence / FCP / Packet Re-cycling, and
// prints the CCDF series P(Stretch > x | affected path) on the paper's axis
// x = 1..15, followed by delivery statistics.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "sim/parallel_sweep.hpp"

namespace pr::bench {

struct PanelConfig {
  std::string panel;       ///< e.g. "Figure 2(a)"
  std::string topology;    ///< display name
  std::size_t failures = 1;
  std::size_t scenarios = 300;  ///< ignored for single failures (enumerated)
  std::uint64_t seed = 0xF16;
  std::size_t threads = 0;  ///< sweep shards; 0 = one per hardware thread
};

/// Panel binaries take `<binary> [threads]`, validated by the shared helper
/// (falls back to PR_SWEEP_THREADS; 0 = hardware).
inline std::size_t panel_threads(int argc, char** argv) {
  return sim::threads_from_arg(argc, argv, 1);
}

inline int run_figure2_panel(const graph::Graph& g, const PanelConfig& cfg) {
  std::cout << cfg.panel << ": " << cfg.topology << " with " << cfg.failures
            << (cfg.failures == 1 ? " failure" : " simultaneous failures") << "\n";
  std::cout << "topology: " << g.node_count() << " nodes, " << g.edge_count()
            << " links\n";

  const analysis::ProtocolSuite suite(g);
  std::cout << "embedding: genus " << suite.embedding().genus << ", "
            << suite.embedding().faces.face_count() << " cycles, PR-safe "
            << (suite.embedding().supports_pr() ? "yes" : "no") << "\n";

  std::vector<graph::EdgeSet> scenarios;
  if (cfg.failures == 1) {
    scenarios = net::all_single_failures(g);
    std::cout << "scenarios: all " << scenarios.size() << " single link failures\n";
  } else if (double combos = 1.0; [&] {
               for (std::size_t i = 0; i < cfg.failures; ++i) {
                 combos *= static_cast<double>(g.edge_count() - i) /
                           static_cast<double>(i + 1);
               }
               return combos <= 50000.0;
             }()) {
    // The subset space is small enough to enumerate: take EVERY
    // connectivity-preserving failure combination (exhaustive, like the
    // single-failure panels).
    for (auto& candidate : net::enumerate_failures(g, cfg.failures)) {
      if (graph::is_connected(g, &candidate)) scenarios.push_back(std::move(candidate));
    }
    std::cout << "scenarios: all " << scenarios.size()
              << " connectivity-preserving failure sets (exhaustive over "
              << static_cast<std::size_t>(combos) << " combinations)\n";
  } else {
    graph::Rng rng(cfg.seed);
    scenarios = net::sample_connected_failures(g, cfg.failures, cfg.scenarios, rng);
    std::cout << "scenarios: " << scenarios.size()
              << " sampled connectivity-preserving failure sets (seed " << cfg.seed
              << ")\n";
  }
  std::cout << "\n";

  // The scenario enumeration above is the work list; shard it across the
  // sweep executor (per-scenario units, canonical-order merge, so the output
  // matches the serial path bit for bit at any thread count).
  sim::SweepExecutor executor(cfg.threads);
  std::cout << "sweep: " << executor.thread_count() << " thread(s)\n\n";
  const auto result =
      analysis::run_stretch_experiment(g, scenarios, suite.paper_trio(), executor);
  std::cout << analysis::format_stretch_report(result, analysis::paper_stretch_axis());

  for (const auto& p : result.protocols) {
    if (p.name == "Packet Re-cycling" && p.dropped_reachable > 0) {
      std::cout << "\nnote: " << p.dropped_reachable
                << " PR packets livelocked although their"
                << " destinations stayed reachable.\n"
                << "      " << cfg.topology << " is non-planar (genus "
                << suite.embedding().genus << " embedding); on a handle a"
                << " joined-region boundary\n"
                << "      need not separate the surface, so the decreasing-distance"
                << " exit can be\n"
                << "      unreachable (reproduction finding F2, pr_property_test's"
                << " NonPlanarLivelock).  The CCDF\n"
                << "      counts these as infinite stretch; FCP delivers them.\n";
    }
  }
  return 0;
}

}  // namespace pr::bench
