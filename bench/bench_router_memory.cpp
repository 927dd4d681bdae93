// Experiment E9 (Section 6 in-text claim): per-router memory.
//
// "The amount of memory that PR requires within each router (a cycle
//  following table and an additional column in the routing table) is
//  acceptable."  This bench prices PR's additions against the base routing
// table and against FCP's per-flow cached state after a failure workload.
#include <iomanip>
#include <iostream>
#include <numeric>

#include "analysis/protocols.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/event_sim.hpp"
#include "net/failure_model.hpp"
#include "route/fcp.hpp"
#include "route/igp.hpp"
#include "sim/forwarding_engine.hpp"
#include "topo/topologies.hpp"

int main() {
  using namespace pr;
  std::cout << "Per-router memory (bytes)\n\n";
  std::cout << std::left << std::setw(12) << "topology" << std::setw(16)
            << "routing-table" << std::setw(16) << "dd-column" << std::setw(18)
            << "cycle-table(avg)" << std::setw(18) << "cycle-table(max)"
            << "PR total overhead\n";

  const std::pair<const char*, graph::Graph> topologies[] = {
      {"figure1", topo::figure1()},
      {"abilene", topo::abilene()},
      {"teleglobe", topo::teleglobe()},
      {"geant", topo::geant()},
  };
  for (const auto& [name, g] : topologies) {
    const analysis::ProtocolSuite suite(g);
    // Base routing table: next hop per destination; DD column: one 32-bit
    // value per destination (the paper's "additional column").
    const std::size_t base = g.node_count() * sizeof(graph::DartId);
    const std::size_t dd_col = g.node_count() * sizeof(std::uint32_t);
    std::size_t cyc_total = 0;
    std::size_t cyc_max = 0;
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const auto b = suite.cycle_table().memory_bytes_per_router(v);
      cyc_total += b;
      cyc_max = std::max(cyc_max, b);
    }
    const std::size_t cyc_avg = cyc_total / g.node_count();
    std::cout << std::left << std::setw(12) << name << std::setw(16) << base
              << std::setw(16) << dd_col << std::setw(18) << cyc_avg << std::setw(18)
              << cyc_max << dd_col + cyc_avg << "\n";
  }

  // FCP's comparison point: per-flow routing state accumulated at routers.
  std::cout << "\nFCP cached per-(failure-list, destination) tables after routing all\n"
               "affected pairs of every single-link failure (one shared cache):\n";
  std::cout << std::left << std::setw(12) << "topology" << std::setw(14)
            << "spf-runs" << std::setw(16) << "cached-tables"
            << "approx bytes (n * 12 per table)\n";
  for (const auto& [name, g] : topologies) {
    route::FcpRouting fcp(g);
    const auto flows = sim::all_pairs_flows(g);
    sim::BatchResult batch;
    for (const auto& failures : net::all_single_failures(g)) {
      net::Network network(g);
      for (auto e : failures.elements()) network.fail_link(e);
      sim::route_batch(network, fcp, flows, sim::TraceMode::kStats, batch);
    }
    const std::size_t bytes = fcp.cached_tables() * g.node_count() * 12;
    std::cout << std::left << std::setw(12) << name << std::setw(14)
              << fcp.spf_computations() << std::setw(16) << fcp.cached_tables() << bytes
              << "\n";
  }

  // Control-plane comparison point: the event-sim's distributed IGP.  Giving
  // each router a full RoutingDb copy would cost 16 B * n^2 per router; the
  // IGP keeps one shared repair cache plus each router's FIB row (one next
  // hop per destination), measured here after a converged link failure.
  std::cout << "\nEvent-sim IGP state after one link failure converges "
               "(shared cache + per-router FIB rows vs per-router table copies):\n";
  std::cout << std::left << std::setw(12) << "topology" << std::setw(10) << "routers"
            << std::setw(16) << "igp-bytes" << std::setw(20) << "naive-copy-bytes"
            << "reduction\n";
  graph::Rng isp_rng(0xC0F);
  const std::pair<const char*, graph::Graph> igp_topologies[] = {
      {"geant", topo::geant()},
      {"isp-256", graph::hierarchical_isp(graph::sized_isp_params(256), isp_rng).graph},
  };
  for (const auto& [name, g] : igp_topologies) {
    net::Network network(g);
    net::Simulator sim;
    route::LinkStateIgp igp(sim, network);
    sim.at(0.0, [&] {
      network.fail_link(0);
      igp.on_link_failure(0);
    });
    sim.run();
    const std::size_t n = g.node_count();
    const std::size_t igp_bytes = igp.table_bytes();
    const std::size_t naive = n * (n * n * 16);  // next+dist+hops columns each
    std::cout << std::left << std::setw(12) << name << std::setw(10) << n
              << std::setw(16) << igp_bytes << std::setw(20) << naive << std::fixed
              << std::setprecision(1) << static_cast<double>(naive) / igp_bytes
              << "x\n";
  }
  return 0;
}
