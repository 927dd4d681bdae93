// Ablation A1: how does PR's stretch grow with the number of simultaneous
// failures?  The paper fixes one failure count per topology (4/10/16); this
// sweep fills in the curve between and beyond those points, reporting mean
// and tail stretch per protocol per k.
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "analysis/protocols.hpp"
#include "analysis/stretch.hpp"
#include "net/failure_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

int main(int argc, char** argv) {
  using namespace pr;
  const std::size_t scenarios_per_k = 120;
  const std::uint64_t seed = 0xAB1;

  // `bench_stretch_vs_failures [threads]` (falls back to PR_SWEEP_THREADS;
  // 0 = hardware); every (topology, k) sweep shards over the same executor.
  sim::SweepExecutor executor(sim::threads_from_arg(argc, argv, 1));
  std::cout << "sweep: " << executor.thread_count() << " thread(s)\n\n";

  for (const auto& [name, g] :
       {std::pair{"abilene", topo::abilene()}, {"teleglobe", topo::teleglobe()},
        {"geant", topo::geant()}}) {
    const analysis::ProtocolSuite suite(g);
    std::cout << "== " << name << ": mean (p99) stretch over affected delivered"
              << " pairs, " << scenarios_per_k
              << " connectivity-preserving scenarios per k ==\n";
    std::cout << std::left << std::setw(6) << "k" << std::setw(26) << "Re-convergence"
              << std::setw(26) << "FCP" << std::setw(26) << "Packet Re-cycling"
              << "PR drops\n";

    const std::size_t max_k = std::min<std::size_t>(g.edge_count() / 3, 16);
    for (std::size_t k = 1; k <= max_k; k = k < 4 ? k + 1 : k * 2) {
      graph::Rng rng(seed + k);
      std::vector<graph::EdgeSet> scenarios;
      try {
        scenarios = net::sample_connected_failures(g, k, scenarios_per_k, rng, 4000);
      } catch (const std::invalid_argument&) {
        std::cout << std::left << std::setw(6) << k
                  << "(no connectivity-preserving scenarios found)\n";
        continue;
      }
      const auto result =
          analysis::run_stretch_experiment(g, scenarios, suite.paper_trio(), executor);
      std::cout << std::left << std::setw(6) << k;
      for (const auto& p : result.protocols) {
        std::vector<double> finite;
        for (double s : p.stretches) {
          if (std::isfinite(s)) finite.push_back(s);
        }
        std::sort(finite.begin(), finite.end());
        const double p99 =
            finite.empty() ? 0.0 : finite[finite.size() * 99 / 100];
        std::ostringstream cell;
        cell << std::fixed << std::setprecision(2) << p.mean_finite_stretch() << " ("
             << p99 << ")";
        std::cout << std::setw(26) << cell.str();
      }
      std::cout << result.protocols.back().dropped() << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
