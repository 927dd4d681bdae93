// Congestion-under-failure sweep: the traffic-engineering comparison.
//
// For each evaluation topology (Abilene / Teleglobe / GEANT) the bench builds
// a degree-gravity demand matrix carrying 1M packets per second, sizes a
// uniform capacity plan so the busiest pristine interface runs at 60%
// utilization, then sweeps every single-link failure and every dual-link
// combination under Packet Re-cycling, Loop-Free Alternates and IGP
// reconvergence.  Each (scenario, protocol) cell routes the full demand
// matrix with demand-weighted load accumulation and is priced against the
// plan: max link utilization, overloaded links, and delivered / lost /
// stranded traffic volume.  Sweeps run on the parallel executor; the Abilene
// single-link sweep is first checked bit-identical to the serial reference
// (the determinism contract is part of what this bench certifies).
//
// Every sweep now runs twice: once through the full re-route oracle and once
// through the affected-flow incremental core (pristine FlowIncidenceIndex +
// canonical-order replay), asserting the two bit-identical before reporting
// the timing ratio and the affected-flow fraction the incremental path
// actually re-routed.
//
// Emits BENCH_traffic_sweep.json (also printed); schema is additive over the
// pre-incremental version ("ms" is still the full-re-route sweep time):
//
//   { "bench": "traffic_sweep", "total_demand_pps": ..., ...,
//     "topologies": [ { "topology": "abilene", ..., "sweeps": [
//       { "failures": 1, "scenarios": S, "ms": ..., "ms_incremental": ...,
//         "speedup_incremental": ..., "affected_flow_fraction": ...,
//         "protocols": [
//         { "protocol": "Packet Re-cycling", "worst_max_utilization": ...,
//           "overloaded_links": ..., "stranded_pps": ...,
//           "rerouted_flows": ..., ... }, ... ] }, ... ] } ],
//     "telemetry": { "cache_hit_rate": ..., "affected_flow_fraction": ...,
//       "counters": {...}, "phases": {...}, "per_worker": [...] } }
//
//   $ ./bench_traffic_sweep [threads] [dual-scenario cap, 0 = none]
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/traffic.hpp"
#include "net/failure_model.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/congestion.hpp"
#include "traffic/demand.hpp"
#include "util/atomic_file.hpp"

namespace {

using namespace pr;
using Clock = std::chrono::steady_clock;

constexpr double kTotalDemandPps = 1e6;  // a million packets/s across the network

void require_identical(const analysis::TrafficExperimentResult& reference,
                       const analysis::TrafficExperimentResult& candidate,
                       const char* label) {
  const auto fail = [label](const char* what) {
    throw std::runtime_error(std::string(label) + ": " + what);
  };
  if (candidate.protocols.size() != reference.protocols.size()) {
    fail("protocol count");
  }
  for (std::size_t i = 0; i < reference.protocols.size(); ++i) {
    if (candidate.protocols[i].per_scenario != reference.protocols[i].per_scenario) {
      fail("per-scenario metrics");  // bit-exact doubles
    }
    if (candidate.protocols[i].total_load != reference.protocols[i].total_load) {
      fail("total load map");
    }
  }
}

void emit_protocols(std::ostringstream& json, std::ostream& table,
                    const analysis::TrafficExperimentResult& result) {
  bool first = true;
  for (const auto& p : result.protocols) {
    const traffic::CongestionSummary s = p.summary();
    json << (first ? "" : ",") << "\n          { \"protocol\": \"" << p.name << "\""
         << ", \"worst_max_utilization\": " << s.worst_max_utilization
         << ", \"mean_max_utilization\": " << s.mean_max_utilization
         << ", \"overloaded_links\": " << s.overloaded_links
         << ", \"overloaded_scenarios\": " << s.overloaded_scenarios
         << ", \"offered_pps\": " << s.offered_pps
         << ", \"delivered_pps\": " << s.delivered_pps
         << ", \"lost_pps\": " << s.lost_pps
         << ", \"stranded_pps\": " << s.stranded_pps
         << ", \"rerouted_flows\": " << p.rerouted_flows
         << ", \"affected_fraction\": " << result.rerouted_fraction(p) << " }";
    first = false;

    table << "  " << std::left << std::setw(26) << p.name << std::right << std::fixed
          << std::setprecision(3) << std::setw(10) << s.worst_max_utilization
          << std::setw(10) << s.mean_max_utilization << std::setw(9)
          << s.overloaded_links << std::setprecision(0) << std::setw(14)
          << s.lost_pps << std::setw(14) << s.stranded_pps << std::setprecision(3)
          << std::setw(10) << result.rerouted_fraction(p) << "\n";
  }
}

double elapsed_ms(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                 Clock::now() - start)
                                 .count()) /
         1e3;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 0;
  std::size_t dual_cap = 0;  // 0 = no cap
  try {
    threads = sim::threads_from_arg(argc, argv, 1);
    if (argc > 2 && !sim::parse_count_arg(argv[2], 1000000, dual_cap)) {
      throw std::invalid_argument("bad dual-scenario cap");
    }
  } catch (const std::exception& ex) {
    std::cerr << "usage: bench_traffic_sweep [threads] [dual-scenario cap, 0 = none]\n"
              << ex.what() << "\n";
    return 1;
  }

  sim::SweepExecutor executor(threads);
  // Telemetry rides along on every sweep (warmups and serial-reference runs
  // included): route-cache hit rate, affected-flow fractions, forwarding hop
  // counts, and per-worker utilization all land in the JSON.
  obs::Registry registry;
  executor.set_telemetry(sim::SweepTelemetry{&registry, nullptr, nullptr});
  const auto bench_t0 = Clock::now();
  std::cout << "traffic sweep: gravity demand " << kTotalDemandPps
            << " pps, capacity sized for " << analysis::kBaselineUtilization
            << " pristine peak utilization, " << executor.thread_count()
            << " sweep thread(s)\n\n";

  struct Topo {
    const char* name;
    graph::Graph g;
  };
  std::vector<Topo> topologies;
  topologies.push_back({"abilene", topo::abilene()});
  topologies.push_back({"teleglobe", topo::teleglobe()});
  topologies.push_back({"geant", topo::geant()});

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"traffic_sweep\",\n"
       << "  \"total_demand_pps\": " << kTotalDemandPps << ",\n"
       << "  \"baseline_utilization\": " << analysis::kBaselineUtilization << ",\n"
       << "  \"demand_model\": \"gravity-degree\",\n"
       << "  \"threads\": " << executor.thread_count() << ",\n"
       << "  \"dual_scenario_cap\": " << dual_cap << ",\n"
       << "  \"topologies\": [";

  bool first_topo = true;
  for (const Topo& t : topologies) {
    const graph::Graph& g = t.g;
    const analysis::ProtocolSuite suite(g);
    const std::vector<analysis::NamedFactory> protocols = {
        suite.pr(), suite.lfa(), suite.reconvergence()};

    const traffic::TrafficMatrix demand =
        traffic::gravity_demand(g, kTotalDemandPps, traffic::GravityMass::kDegree);
    const traffic::CapacityPlan plan =
        analysis::baseline_capacity_plan(g, demand, suite.spf());

    std::cout << t.name << ": " << g.node_count() << " nodes, " << g.edge_count()
              << " links, " << demand.pair_count() << " demand pairs, per-link capacity "
              << std::fixed << std::setprecision(0) << plan.capacity_pps(0)
              << " pps\n";

    json << (first_topo ? "" : ",") << "\n    { \"topology\": \"" << t.name
         << "\", \"nodes\": " << g.node_count() << ", \"links\": " << g.edge_count()
         << ", \"demand_pairs\": " << demand.pair_count()
         << ", \"capacity_pps_per_link\": " << plan.capacity_pps(0)
         << ",\n      \"sweeps\": [";
    first_topo = false;

    struct Sweep {
      std::size_t failures;
      std::vector<graph::EdgeSet> scenarios;
    };
    std::vector<Sweep> sweeps;
    sweeps.push_back({1, net::all_single_failures(g)});
    {
      // Every dual-link combination, disconnecting ones included (that is
      // where stranded traffic comes from); cap only if the caller asked.
      std::vector<graph::EdgeSet> duals = net::enumerate_failures(g, 2);
      if (dual_cap != 0 && duals.size() > dual_cap) duals.resize(dual_cap);
      sweeps.push_back({2, std::move(duals)});
    }

    // Untimed warmup of both modes on the cheapest sweep: the executor's
    // per-worker state (pristine ScenarioRoutingCache builds, batch / load /
    // incidence buffer growth) is paid here, once, so the timed comparison
    // below measures the algorithmic difference rather than which mode ran
    // first on cold workers.
    (void)analysis::run_traffic_experiment(
        g, demand, plan, sweeps.front().scenarios, protocols, executor,
        analysis::TrafficSweepMode::kFullReroute);
    (void)analysis::run_traffic_experiment(
        g, demand, plan, sweeps.front().scenarios, protocols, executor,
        analysis::TrafficSweepMode::kIncremental);

    bool first_sweep = true;
    for (const Sweep& sweep : sweeps) {
      const auto full_start = Clock::now();
      const auto full = analysis::run_traffic_experiment(
          g, demand, plan, sweep.scenarios, protocols, executor,
          analysis::TrafficSweepMode::kFullReroute);
      const double ms_full = elapsed_ms(full_start);

      const auto inc_start = Clock::now();
      const auto result = analysis::run_traffic_experiment(
          g, demand, plan, sweep.scenarios, protocols, executor,
          analysis::TrafficSweepMode::kIncremental);
      const double ms_inc = elapsed_ms(inc_start);

      // The incremental core must reproduce the oracle bit for bit on every
      // sweep -- the speedup below is only worth reporting if it does.
      require_identical(full, result,
                        "incremental traffic sweep diverged from the full "
                        "re-route oracle");

      // Determinism guard on the cheapest sweep: the executor result must be
      // bit-identical to the serial reference path.
      if (sweep.failures == 1 && t.name == std::string("abilene")) {
        require_identical(
            analysis::run_traffic_experiment(g, demand, plan, sweep.scenarios,
                                             protocols),
            result, "parallel traffic sweep diverged from serial");
      }

      double affected_fraction = 0.0;
      for (const auto& p : result.protocols) {
        affected_fraction += result.rerouted_fraction(p);
      }
      affected_fraction /= static_cast<double>(result.protocols.size());
      const double speedup = ms_inc > 0.0 ? ms_full / ms_inc : 0.0;

      std::cout << " " << sweep.failures << "-link sweep, " << sweep.scenarios.size()
                << " scenarios: full " << std::fixed << std::setprecision(0)
                << ms_full << " ms, incremental " << ms_inc << " ms ("
                << std::setprecision(2) << speedup << "x, affected fraction "
                << std::setprecision(3) << affected_fraction << "):\n  "
                << std::left << std::setw(26) << "protocol" << std::right
                << std::setw(10) << "worst-U" << std::setw(10) << "mean-U"
                << std::setw(9) << "overld" << std::setw(14) << "lost-pps"
                << std::setw(14) << "stranded-pps" << std::setw(10) << "affected"
                << "\n";

      json << (first_sweep ? "" : ",") << "\n        { \"failures\": "
           << sweep.failures << ", \"scenarios\": " << sweep.scenarios.size()
           << ", \"flows_per_scenario\": " << result.flows_per_scenario
           << ", \"ms\": " << ms_full << ", \"ms_incremental\": " << ms_inc
           << ", \"speedup_incremental\": " << speedup
           << ", \"affected_flow_fraction\": " << affected_fraction
           << ",\n          \"protocols\": [";
      emit_protocols(json, std::cout, result);
      json << "\n        ] }";
      first_sweep = false;
      std::cout << "\n";
    }
    json << "\n      ] }";
  }
  json << "\n  ],\n  \"telemetry\": "
       << obs::telemetry_json(registry, elapsed_ms(bench_t0)) << "\n}\n";

  util::atomic_write_file("BENCH_traffic_sweep.json", json.str());
  std::cerr << "wrote BENCH_traffic_sweep.json\n";
  return 0;
}
