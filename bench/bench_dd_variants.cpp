// Ablation A4: the two distance-discriminator candidates from Section 4.3 --
// hop count versus weighted path cost -- compared on header bits, stretch and
// delivery across single and multi failure workloads.
//
// With unit link weights the two coincide, so this bench runs on a weighted
// variant of GEANT (metro links cost 1, long-haul links cost 3) and on the
// Figure 1 network whose paper-pinned weights already differ from hop counts.
#include <iomanip>
#include <iostream>

#include "analysis/protocols.hpp"
#include "analysis/stretch.hpp"
#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "net/header_codec.hpp"
#include "topo/topologies.hpp"

namespace {

pr::graph::Graph weighted_geant() {
  auto g = pr::topo::geant();
  // Long-haul links (those leaving the DE/FR/UK/NL/IT core) cost 3.
  const auto core = [&g](pr::graph::NodeId v) {
    const auto& l = g.node_label(v);
    return l == "DE" || l == "FR" || l == "UK" || l == "NL" || l == "IT";
  };
  for (pr::graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!core(g.edge_u(e)) && !core(g.edge_v(e))) g.set_edge_weight(e, 3.0);
  }
  return g;
}

}  // namespace

int main() {
  using namespace pr;

  for (const auto& [name, g] :
       {std::pair{"figure1", topo::figure1()}, {"geant-weighted", weighted_geant()}}) {
    std::cout << "== " << name << " ==\n";
    std::cout << std::left << std::setw(12) << "dd-kind" << std::setw(10) << "max-dd"
              << std::setw(12) << "header-bits" << std::setw(14) << "mean-stretch"
              << std::setw(13) << "max-stretch" << "drops (single failures)\n";

    for (const auto kind :
         {route::DiscriminatorKind::kHops, route::DiscriminatorKind::kWeightedCost}) {
      const analysis::ProtocolSuite suite(g, embed::EmbedOptions{}, kind);
      const auto scenarios = net::all_single_failures(g);
      const auto result = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});
      const auto& p = result.protocols[0];
      const auto max_dd = suite.routes().max_discriminator();
      std::cout << std::left << std::setw(12)
                << (kind == route::DiscriminatorKind::kHops ? "hops" : "weighted")
                << std::setw(10) << max_dd << std::setw(12)
                << 1 + net::bits_for_value(max_dd) << std::setw(14) << std::fixed
                << std::setprecision(3) << p.mean_finite_stretch() << std::setw(13)
                << p.max_finite_stretch() << p.dropped() << "\n";
    }

    // Multi-failure delivery check: both discriminators must stay loop-free.
    // Enumerate-and-filter keeps small graphs exhaustive.
    const std::size_t k = std::min<std::size_t>(4, g.edge_count() / 4);
    std::vector<graph::EdgeSet> multi;
    if (g.edge_count() <= 12) {
      for (auto& candidate : net::enumerate_failures(g, k)) {
        if (graph::is_connected(g, &candidate)) multi.push_back(std::move(candidate));
      }
    } else {
      graph::Rng rng(0xA4);
      multi = net::sample_connected_failures(g, k, 60, rng);
    }
    for (const auto kind :
         {route::DiscriminatorKind::kHops, route::DiscriminatorKind::kWeightedCost}) {
      const analysis::ProtocolSuite suite(g, embed::EmbedOptions{}, kind);
      const auto result = analysis::run_stretch_experiment(g, multi, {suite.pr()});
      std::cout << "  multi-failure (k=" << k << ", "
                << (kind == route::DiscriminatorKind::kHops ? "hops" : "weighted")
                << "): delivered " << result.protocols[0].delivered << ", dropped "
                << result.protocols[0].dropped() << "\n";
    }
    std::cout << "\n";
  }
  std::cout << "Hop-count discriminators need fewer header bits (log2 of the hop\n"
               "diameter); weighted discriminators grow with the cost diameter but\n"
               "follow the IGP metric exactly.  Both terminate.\n";
  return 0;
}
