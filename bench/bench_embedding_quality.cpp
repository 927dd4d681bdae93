// Ablation A3: embedding quality -> stretch and coverage.
//
// PR's correctness and cost both hinge on the offline embedding
// (pr_property_test's EmbeddingQuality and NonPlanarLivelock tests).  This
// bench runs the single-failure experiment on the same topology under four
// embeddings -- the paper-grade auto embedding, the best-of-local-search, a
// random rotation and the identity rotation -- and reports genus, PR-safety,
// stretch and any stranded packets.
#include <iomanip>
#include <iostream>

#include "analysis/protocols.hpp"
#include "analysis/stretch.hpp"
#include "net/failure_model.hpp"
#include "topo/topologies.hpp"

int main() {
  using namespace pr;

  for (const auto& [name, g] :
       {std::pair{"abilene", topo::abilene()}, {"teleglobe", topo::teleglobe()}}) {
    std::cout << "== " << name << ": single-failure stretch vs embedding quality ==\n";
    std::cout << std::left << std::setw(12) << "embedding" << std::setw(8) << "genus"
              << std::setw(8) << "faces" << std::setw(10) << "PR-safe" << std::setw(14)
              << "mean-stretch" << std::setw(13) << "max-stretch"
              << "stranded (recoverable drops)\n";

    for (const auto strategy :
         {embed::EmbedStrategy::kAuto, embed::EmbedStrategy::kLocalSearch,
          embed::EmbedStrategy::kRandom, embed::EmbedStrategy::kIdentity}) {
      embed::EmbedOptions opts;
      opts.strategy = strategy;
      opts.random_seed = 0xA3;
      const analysis::ProtocolSuite suite(g, embed::embed(g, opts));
      const auto scenarios = net::all_single_failures(g);
      const auto result = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});
      const auto& p = result.protocols[0];
      const char* label = strategy == embed::EmbedStrategy::kAuto          ? "auto"
                          : strategy == embed::EmbedStrategy::kLocalSearch ? "search"
                          : strategy == embed::EmbedStrategy::kRandom      ? "random"
                                                                           : "identity";
      std::cout << std::left << std::setw(12) << label << std::setw(8)
                << suite.embedding().genus << std::setw(8)
                << suite.embedding().faces.face_count() << std::setw(10)
                << (suite.embedding().supports_pr() ? "yes" : "no") << std::setw(14)
                << std::fixed << std::setprecision(3) << p.mean_finite_stretch()
                << std::setw(13) << p.max_finite_stretch() << p.dropped_reachable
                << "\n";
    }
    std::cout << "\n";
  }
  std::cout << "Takeaway: genus-0 / PR-safe embeddings (auto) recover everything;\n"
               "unsafe rotations strand packets exactly at their self-paired links\n"
               "(reproduction finding F1), and longer cycles inflate stretch.\n";
  return 0;
}
