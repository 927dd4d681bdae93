// Ablation A6: how do PR's costs scale with network size?
//
// Synthetic two-tier ISPs (planar, 2-edge-connected by construction) from 15
// to 150 nodes.  For each size: embedding cost, header bits, per-router
// state, and the single-failure stretch of the paper trio over sampled
// failures.  The punchline the paper predicts: header bits grow as
// log2(diameter), state stays tiny, and stretch stays flat-ish because
// backup cycles are local.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <utility>

#include "analysis/protocols.hpp"
#include "analysis/stats.hpp"
#include "embed/embedder.hpp"
#include "graph/dijkstra.hpp"
#include "net/failure_model.hpp"
#include "net/header_codec.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

int main(int argc, char** argv) {
  using namespace pr;
  using Clock = std::chrono::steady_clock;

  // `bench_scaling [threads]` (falls back to PR_SWEEP_THREADS; 0 = hardware):
  // the per-size stretch sweeps shard over the executor and stay
  // bit-identical to the serial path at any thread count.
  sim::SweepExecutor executor(sim::threads_from_arg(argc, argv, 1));

  std::cout << "Synthetic two-tier ISPs, 25 sampled single failures per size, "
               "seed 0xA6, sweep on "
            << executor.thread_count() << " thread(s)\n\n";
  std::cout << std::left << std::setw(8) << "nodes" << std::setw(8) << "links"
            << std::setw(7) << "diam" << std::setw(9) << "dd-bits" << std::setw(12)
            << "embed-ms" << std::setw(14) << "tables-bytes" << std::setw(34)
            << "PR stretch (mean | p99 | max)" << "reconv-mean\n";

  for (const std::size_t core : {10U, 20U, 40U, 70U, 100U}) {
    graph::Rng topo_rng(0xA6);
    const auto g = topo::synthetic_isp(core, core / 2, topo_rng);

    // embed-ms times the embedding alone; the suite's tables come after.
    const auto start = Clock::now();
    embed::Embedding embedding = embed::embed(g);
    const auto embed_ms = std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now() - start)
                              .count() /
                          1000.0;
    const analysis::ProtocolSuite suite(g, std::move(embedding));

    graph::Rng rng(0xA6);
    std::vector<graph::EdgeSet> scenarios;
    {
      auto all = net::all_single_failures(g);
      std::shuffle(all.begin(), all.end(), rng.engine());
      all.resize(std::min<std::size_t>(25, all.size()));
      scenarios = std::move(all);
    }
    const auto result =
        analysis::run_stretch_experiment(g, scenarios, suite.paper_trio(), executor);
    const auto& pr_res = result.protocols[2];
    const auto summary = analysis::summarize(pr_res.stretches);

    const auto layout =
        net::PrHeaderLayout::for_hop_diameter(suite.routes().max_discriminator());
    // Per-router: DD column + average cycle-following table.
    std::size_t cyc = 0;
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      cyc += suite.cycle_table().memory_bytes_per_router(v);
    }
    const std::size_t state =
        g.node_count() * sizeof(std::uint32_t) + cyc / g.node_count();

    std::ostringstream stretch_cell;
    stretch_cell << std::fixed << std::setprecision(2) << summary.mean << " | "
                 << summary.p99 << " | " << summary.max;
    std::cout << std::left << std::setw(8) << g.node_count() << std::setw(8)
              << g.edge_count() << std::setw(7) << graph::hop_diameter(g)
              << std::setw(9) << layout.total_bits() << std::setw(12) << std::fixed
              << std::setprecision(2) << embed_ms << std::setw(14) << state
              << std::setw(34) << stretch_cell.str() << std::setprecision(2)
              << result.protocols[0].mean_finite_stretch() << "\n";

    if (pr_res.dropped() != 0) {
      std::cout << "  WARNING: " << pr_res.dropped()
                << " drops on a planar topology -- investigate!\n";
    }
  }
  std::cout << "\nHeader bits track log2(diameter); per-router PR state stays in\n"
               "the hundreds of bytes; mean stretch is scale-stable because the\n"
               "complementary cycles used for repair are local structures.\n";
  return 0;
}
