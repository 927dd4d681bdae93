// Ablation A2: repair coverage -- what fraction of recoverable packets does
// each scheme deliver as the number of simultaneous failures grows?
//
// Compares PR (full DD protocol), PR's 1-bit variant (Section 4.2), LFA
// (RFC 5286), FCP, and plain SPF on Abilene and GEANT.  Scenarios are
// sampled WITHOUT a connectivity filter: "dropped-partitioned" packets had
// no possible route; "dropped-reachable" are genuine protocol coverage gaps.
// PR's guarantee says its dropped-reachable column must be zero on these
// planar topologies; the bench exits 1 when PR (DD) drops a reachable packet
// on a genus-0 embedding.
#include <iostream>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "analysis/stretch.hpp"
#include "net/failure_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

int main(int argc, char** argv) {
  using namespace pr;
  const std::uint64_t seed = 0xC0FE;
  const std::size_t scenarios_per_k = 150;
  const std::size_t threads = sim::threads_from_arg(argc, argv, 1);
  sim::SweepExecutor executor(threads);
  int status = 0;

  for (const auto& [name, g] :
       {std::pair{"abilene", topo::abilene()}, {"geant", topo::geant()}}) {
    const analysis::ProtocolSuite suite(g);
    const std::vector<analysis::NamedFactory> protocols = {
        suite.pr(), suite.pr_single_bit(), suite.lfa(), suite.fcp(), suite.spf()};

    std::cout << "== " << name << " (" << g.node_count() << " nodes, "
              << g.edge_count() << " links), " << scenarios_per_k
              << " scenarios per failure count, seed " << std::hex << seed << std::dec
              << " ==\n";
    for (std::size_t k : {1U, 2U, 4U, 8U}) {
      if (k >= g.edge_count() / 2) continue;
      graph::Rng rng(seed + k);
      const auto scenarios = net::sample_any_failures(g, k, scenarios_per_k, rng);
      const auto result =
          analysis::run_stretch_experiment(g, scenarios, protocols, executor);
      std::cout << "\n-- " << k << " simultaneous failure(s) --\n"
                << analysis::format_coverage_report(result);
      const std::size_t pr_lost = result.protocols[0].dropped_reachable;
      if (suite.embedding().genus == 0 && pr_lost > 0) {
        std::cerr << "FAIL: " << name << ", k=" << k << ": PR dropped " << pr_lost
                  << " reachable packet(s) on a genus-0 embedding\n";
        status = 1;
      }
    }
    std::cout << "\n";
  }
  return status;
}
