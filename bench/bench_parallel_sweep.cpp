// Scaling bench for the parallel sharded sweep executor: a GEANT
// multi-failure stretch enumeration (the paper-trio comparison over every
// connectivity-preserving k-failure combination) run serially and then on
// SweepExecutor pools of 1/2/4/8 threads.
//
// Every parallel run is checked bit-identical to the serial sweep before its
// timing is reported -- the executor's determinism contract is part of what
// this bench certifies.  Emits BENCH_parallel_sweep.json (also printed):
//
//   {
//     "bench": "parallel_sweep", "topology": "geant",
//     "nodes": N, "links": M, "failures_per_scenario": K,
//     "scenarios": S, "affected_pairs": P, "protocols": 3,
//     "hardware_threads": H, "repetitions": R,
//     "serial_ms": ...,
//     "results": [ { "threads": T, "ms": ..., "speedup_vs_serial": ... }, ... ],
//     "speedup_at_4_threads": ...
//   }
//
// Timings are the best of R repetitions; pool construction is excluded (the
// executor is persistent by design).
//
//   $ ./bench_parallel_sweep [failures] [scenarios] [repetitions]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/stretch.hpp"
#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"
#include "util/atomic_file.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace pr;

double best_ms(std::size_t repetitions, const std::function<std::size_t()>& work) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t checksum = 0;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    const auto start = Clock::now();
    checksum += work();
    const auto ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
            .count());
    best = std::min(best, ns / 1e6);
  }
  if (checksum == 0) throw std::runtime_error("bench delivered nothing");
  return best;
}

void require_identical(const analysis::StretchExperimentResult& serial,
                       const analysis::StretchExperimentResult& parallel,
                       std::size_t threads) {
  if (parallel == serial) return;
  throw std::runtime_error("parallel sweep diverged from serial at " +
                           std::to_string(threads) + " thread(s)");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t failures = 2;
  std::size_t scenario_cap = 0;  // 0 = no cap
  std::size_t repetitions = 3;
  const bool args_ok =
      (argc <= 1 || (sim::parse_count_arg(argv[1], 16, failures) && failures > 0)) &&
      (argc <= 2 || sim::parse_count_arg(argv[2], 1000000, scenario_cap)) &&
      (argc <= 3 || (sim::parse_count_arg(argv[3], 1000, repetitions) && repetitions > 0));
  if (!args_ok) {
    std::cerr << "usage: bench_parallel_sweep [failures 1..16] "
                 "[scenario cap, 0 = none] [repetitions 1..1000]\n";
    return 1;
  }

  const graph::Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  const auto protocols = suite.paper_trio();

  // Enumerate every connectivity-preserving k-failure combination (the
  // regime of the paper's guarantee); cap only if the caller asked to.
  std::vector<graph::EdgeSet> scenarios;
  for (auto& candidate : net::enumerate_failures(g, failures)) {
    if (scenario_cap != 0 && scenarios.size() == scenario_cap) break;
    if (graph::is_connected(g, &candidate)) scenarios.push_back(std::move(candidate));
  }
  if (scenarios.empty()) throw std::runtime_error("no connected failure scenarios");

  const auto serial_result = analysis::run_stretch_experiment(g, scenarios, protocols);
  const double serial_ms = best_ms(repetitions, [&] {
    return analysis::run_stretch_experiment(g, scenarios, protocols).protocols[0].delivered;
  });

  const unsigned hardware = std::thread::hardware_concurrency();
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"parallel_sweep\",\n"
       << "  \"topology\": \"geant\",\n"
       << "  \"nodes\": " << g.node_count() << ",\n"
       << "  \"links\": " << g.edge_count() << ",\n"
       << "  \"failures_per_scenario\": " << failures << ",\n"
       << "  \"scenarios\": " << scenarios.size() << ",\n"
       << "  \"affected_pairs\": " << serial_result.affected_pairs << ",\n"
       << "  \"protocols\": " << protocols.size() << ",\n"
       << "  \"hardware_threads\": " << hardware << ",\n"
       << "  \"repetitions\": " << repetitions << ",\n"
       << "  \"serial_ms\": " << serial_ms << ",\n"
       << "  \"results\": [";

  double speedup_at_4 = 0.0;
  bool first = true;
  for (const std::size_t threads : {1U, 2U, 4U, 8U}) {
    sim::SweepExecutor executor(threads);
    const auto parallel_result =
        analysis::run_stretch_experiment(g, scenarios, protocols, executor);
    require_identical(serial_result, parallel_result, threads);

    const double ms = best_ms(repetitions, [&] {
      return analysis::run_stretch_experiment(g, scenarios, protocols, executor)
          .protocols[0]
          .delivered;
    });
    const double speedup = serial_ms / ms;
    if (threads == 4) speedup_at_4 = speedup;
    json << (first ? "" : ",") << "\n    { \"threads\": " << threads
         << ", \"ms\": " << ms << ", \"speedup_vs_serial\": " << speedup << " }";
    first = false;
  }
  json << "\n  ],\n"
       << "  \"speedup_at_4_threads\": " << speedup_at_4 << "\n}\n";

  std::cout << json.str();
  util::atomic_write_file("BENCH_parallel_sweep.json", json.str());
  std::cerr << "wrote BENCH_parallel_sweep.json (hardware threads: " << hardware
            << ")\n";
  return 0;
}
