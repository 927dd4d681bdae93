// Ablation A5: correlated failures -- node outages.
//
// The paper's title promises protection against "link or node failures" and
// its guarantee is phrased over arbitrary failure *combinations*; real
// combinations are correlated (a router reboot takes all its links).  This
// bench sweeps every single node failure on each topology, reporting coverage
// and the stretch paid by the saved packets.  The SRLG (shared-risk link
// group) section that used to live here moved to bench_failure_storms, where
// the same random-conduit catalog now serves as the exhaustive small-scale
// oracle that sampled storm estimates must converge to.
#include <iomanip>
#include <iostream>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "analysis/stats.hpp"
#include "analysis/stretch.hpp"
#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

int main(int argc, char** argv) {
  using namespace pr;

  // `bench_correlated_failures [threads]` (falls back to PR_SWEEP_THREADS;
  // 0 = hardware); the node-outage and SRLG sweeps shard over the executor.
  sim::SweepExecutor executor(sim::threads_from_arg(argc, argv, 1));
  std::cout << "sweep: " << executor.thread_count() << " thread(s)\n\n";

  std::cout << "-- Node failures: every router down once, all other pairs --\n\n";
  for (const auto& [name, g] :
       {std::pair{"abilene", topo::abilene()}, {"teleglobe", topo::teleglobe()},
        {"geant", topo::geant()}}) {
    const analysis::ProtocolSuite suite(g);
    const auto scenarios = net::all_node_failures(g);
    const auto result = analysis::run_stretch_experiment(
        g, scenarios,
        {suite.pr(), suite.lfa(), suite.lfa_node_protecting(), suite.spf()},
        executor);
    std::cout << "== " << name << " (" << scenarios.size() << " node outages) ==\n"
              << analysis::format_coverage_report(result)
              << "PR stretch over saved packets: "
              << analysis::to_string(analysis::summarize(result.protocols[0].stretches))
              << "\n\n";
  }

  return 0;
}
