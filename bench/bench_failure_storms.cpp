// Failure storms: million-scenario sampled correlated-failure sweeps with
// flat-memory streaming reduction.
//
// The paper's multi-failure guarantee is phrased over failure combinations,
// and the combinations operators plan for are correlated (conduit cuts,
// storm fronts, compound outages).  This bench drives net::StormModel
// distributions over SRLG catalogs through analysis::run_storm_experiment at
// scenario counts no per-scenario result vector could hold, and certifies
// the machinery three ways:
//
//   1. oracle convergence: on a small enumerable catalog (random conduit
//      SRLGs on GEANT -- the section that used to live in
//      bench_correlated_failures), sampled quantiles / means / probabilities
//      are compared against run_exhaustive_storm's exact weighted values over
//      all 2^G subsets, with relative errors reported and bounds asserted at
//      large sample counts;
//   2. determinism: the full sampled sweep is repeated on 1/2/4/8-thread
//      executors and every streamed reducer output (running sums, P^2 marker
//      estimates, top-K tables) is asserted bit-identical across pool sizes;
//   3. throughput and memory: scenarios/sec per thread count, plus peak RSS,
//      which stays flat because the sweep state is one slot ring, per-worker
//      scratch and the reducers.
//
// Emits BENCH_failure_storms.json (also printed):
//
//   { "bench": "failure_storms", "topology": "geant", "scenarios": S,
//     "catalog_groups": G, "disconnecting_groups": D, "model": "...",
//     "calm_fraction": ..., "disconnected_fraction": ...,
//     "oracle": { "groups": ..., "subsets": ..., "sampled_scenarios": ...,
//       "protocols": [ { "protocol": ..., "oracle_mean_max_utilization": ...,
//         "sampled_mean_max_utilization": ..., "mean_utilization_error": ...,
//         "oracle_loss_probability": ..., "sampled_loss_probability": ... },
//         ... ] },
//     "threads": [ { "threads": T, "ms": ..., "scenarios_per_second": ... },
//       ... ],
//     "bit_identical_across_threads": true,
//     "protocols": [ { "protocol": ..., "mean_max_utilization": ...,
//       "quantiles": [...], "utilization_quantiles": [...],
//       "stretch_quantiles": [...], "delivered_fraction": ...,
//       "overload_rate": ..., "worst": [ { "scenario": ...,
//       "max_utilization": ..., "lost_pps": ..., "stranded_pps": ...,
//       "failed_edges": ..., "failed_groups": [...] }, ... ] }, ... ],
//     "resilience": { "fault_plan": "...", "stop_reason": "...",
//       "completed_units": ..., "checkpoint_bytes": ..., "resumed": ...,
//       "bit_identical_after_resume": true, "deadline": { ... } },
//     "peak_rss_mb": ... }
//
// Section 4 (resilience) interrupts the sweep -- a scenario budget at half
// the sweep by default, or whatever PR_FAULT_THROW_UNIT / PR_FAULT_STALL_UNIT
// / PR_FAULT_MALFORMED_UNIT / PR_FAULT_FAIL_CHECKPOINT inject (CI's
// fault-injection smoke) -- then resumes from the checkpoint and requires the
// final reducers bit-identical to the uninterrupted reference; a second leg
// does the same through a 25 ms wall-clock deadline.
//
//   $ ./bench_failure_storms [scenarios 1..10000000] [threads 0..N]
//                            [top_k 1..100]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/storm.hpp"
#include "analysis/traffic.hpp"
#include "net/storm_model.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_log.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/run_control.hpp"
#include "sim/signal_guard.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"
#include "util/atomic_file.hpp"

namespace {

using namespace pr;
using Clock = std::chrono::steady_clock;

constexpr double kTotalDemandPps = 1e6;
constexpr double kBaselineUtilization = 0.6;
constexpr double kOutageProbability = 0.02;  // per geographic bundle, per scenario

double elapsed_ms(Clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                 Clock::now() - start)
                                 .count()) /
         1e3;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

/// Capacity plan sized so the busiest pristine SPF interface runs at the
/// baseline utilization (same sizing rule as bench_traffic_sweep).
traffic::CapacityPlan size_plan(const graph::Graph& g,
                                const analysis::ProtocolSuite& suite,
                                const traffic::TrafficMatrix& demand) {
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);
  net::Network network(g);
  const auto spf = suite.spf().make(network);
  traffic::LoadMap load;
  sim::BatchResult batch;
  sim::route_batch(network, *spf, flows, demands, load, sim::TraceMode::kStats, batch);
  double peak = 0.0;
  for (const double v : load.darts()) peak = std::max(peak, v);
  return traffic::CapacityPlan::uniform(g, peak / kBaselineUtilization);
}

/// Every streamed output, bit for bit: running sums, P^2 estimates, volume
/// totals, counters and the top-K tables.  Any divergence between thread
/// counts is a determinism bug, not noise.
void require_identical(const analysis::StormExperimentResult& want,
                       const analysis::StormExperimentResult& got,
                       std::size_t threads) {
  if (got == want) return;
  std::string what = "sweep totals";
  for (std::size_t i = 0; i < want.protocols.size() && i < got.protocols.size(); ++i) {
    if (!(got.protocols[i] == want.protocols[i])) what = want.protocols[i].name;
  }
  throw std::runtime_error("storm sweep diverged at " + std::to_string(threads) +
                           " threads: " + what);
}

double relative_error(double got, double want) {
  if (want == 0.0) return std::abs(got);
  return std::abs(got - want) / std::abs(want);
}

void emit_double_array(std::ostringstream& json, const std::vector<double>& values) {
  json << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    json << (i == 0 ? "" : ", ") << values[i];
  }
  json << "]";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scenario_count = 50000;
  std::size_t threads_cap = 0;  // 0 = up to 8 / hardware
  std::size_t top_k = 10;
  bool args_ok =
      (argc <= 1 ||
       (sim::parse_count_arg(argv[1], 10000000, scenario_count) && scenario_count > 0));
  if (args_ok && argc > 2) {
    try {
      threads_cap = sim::threads_from_arg(argc, argv, 2);
    } catch (const std::invalid_argument&) {
      args_ok = false;
    }
  }
  args_ok = args_ok &&
            (argc <= 3 || (sim::parse_count_arg(argv[3], 100, top_k) && top_k > 0));
  if (!args_ok || argc > 4) {
    std::cerr << "usage: bench_failure_storms [scenarios 1..10000000] "
                 "[threads 0..N] [top_k 1..100]\n";
    return 1;
  }

  const graph::Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  const std::vector<analysis::NamedFactory> protocols = {suite.pr(), suite.lfa(),
                                                         suite.reconvergence()};
  const traffic::TrafficMatrix demand =
      traffic::gravity_demand(g, kTotalDemandPps, traffic::GravityMass::kDegree);
  const traffic::CapacityPlan plan = size_plan(g, suite, demand);

  // The storm catalog: one geographic bundle per node (all links within one
  // hop), failing independently per scenario.  The disconnecting-group count
  // is the operator-facing risk preamble -- and now costs one shared scratch
  // instead of a fresh BFS allocation per group.
  const net::SrlgCatalog catalog = net::geographic_srlgs(g, 2);
  const auto risky = catalog.disconnecting_groups();
  const net::IndependentOutages model =
      net::IndependentOutages::uniform(catalog, kOutageProbability);

  analysis::StormSweepConfig config;
  config.scenarios = scenario_count;
  config.seed = 0x5708;
  config.top_k = top_k;

  std::cout << "failure storms on geant: " << g.node_count() << " nodes, "
            << g.edge_count() << " links, " << demand.pair_count()
            << " demand pairs\n"
            << "catalog: " << catalog.group_count() << " geographic bundles, "
            << risky.size() << " would partition the network\n"
            << "model: " << model.describe() << "\n\n";

  // Graceful shutdown: one guard for the whole bench.  SIGINT/SIGTERM cancel
  // whichever controlled leg is active (rebind below); the uncontrolled
  // sections honour the request at the next section boundary.  Either way the
  // process leaves with the distinct resumable status instead of dying
  // mid-artifact-write.
  sim::RunControl signal_control;
  sim::SignalGuard guard(signal_control);
  const auto bail_if_signalled = [&guard] {
    if (guard.triggered()) {
      std::cerr << "bench_failure_storms: interrupted by signal "
                << guard.signal_number() << "; exiting "
                << sim::kInterruptedExitStatus << "\n";
      std::exit(sim::kInterruptedExitStatus);
    }
  };

  std::ostringstream json;
  json << "{\n  \"bench\": \"failure_storms\",\n  \"topology\": \"geant\",\n"
       << "  \"scenarios\": " << scenario_count << ",\n  \"catalog_groups\": "
       << catalog.group_count() << ",\n  \"disconnecting_groups\": " << risky.size()
       << ",\n  \"model\": \"" << model.describe() << "\",\n  \"top_k\": " << top_k;

  // -- Section 1: sampled estimates vs the exhaustive weighted oracle -------
  //
  // A 12-group random-conduit catalog (the SRLG setup bench_correlated_failures
  // used to sweep exhaustively) is small enough to enumerate all 2^12 subsets
  // with exact probabilities; the sampled sweep over the same model must
  // converge to those values.
  {
    graph::Rng rng(0xA5);
    const net::SrlgCatalog small_catalog = net::random_srlgs(g, 12, 4, rng);
    const net::IndependentOutages small_model =
        net::IndependentOutages::uniform(small_catalog, 0.08);
    const auto oracle =
        analysis::run_exhaustive_storm(g, demand, plan, small_model, protocols);

    analysis::StormSweepConfig sampled_config = config;
    sampled_config.seed = 0x0AC1E;
    sim::SweepExecutor executor(threads_cap);
    const auto sampled = analysis::run_storm_experiment(
        g, demand, plan, small_model, protocols, sampled_config, executor);

    std::cout << "-- Oracle convergence: " << small_catalog.group_count()
              << " random conduit groups, " << oracle.scenarios
              << " enumerated subsets (total probability " << std::setprecision(6)
              << oracle.total_probability << "), " << scenario_count
              << " sampled scenarios --\n";
    json << ",\n  \"oracle\": { \"groups\": " << small_catalog.group_count()
         << ", \"subsets\": " << oracle.scenarios
         << ", \"sampled_scenarios\": " << scenario_count
         << ",\n    \"protocols\": [";

    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const analysis::StormOracleProtocol& o = oracle.protocols[i];
      const analysis::StormProtocolResult& s = sampled.protocols[i];
      const double n = static_cast<double>(sampled.scenarios);
      const double sampled_mean_util = s.utilization.mean();
      const double sampled_loss_prob = static_cast<double>(s.lossy_scenarios) / n;
      const double mean_err = relative_error(sampled_mean_util, o.mean_max_utilization);
      const double delivered_err = relative_error(
          s.delivered_pps / n, o.expected_delivered_pps);

      std::cout << "  " << std::left << std::setw(26) << o.name << std::right
                << std::fixed << std::setprecision(4) << " mean-U oracle "
                << o.mean_max_utilization << " sampled " << sampled_mean_util
                << " (err " << std::setprecision(5) << mean_err << "), P(loss) oracle "
                << o.loss_probability << " sampled " << sampled_loss_prob << "\n";

      json << (i == 0 ? "" : ",") << "\n      { \"protocol\": \"" << o.name << "\""
           << ", \"oracle_mean_max_utilization\": " << o.mean_max_utilization
           << ", \"sampled_mean_max_utilization\": " << sampled_mean_util
           << ", \"mean_utilization_error\": " << mean_err
           << ", \"oracle_mean_max_stretch\": " << o.mean_max_stretch
           << ", \"sampled_mean_max_stretch\": " << s.stretch.mean()
           << ", \"oracle_loss_probability\": " << o.loss_probability
           << ", \"sampled_loss_probability\": " << sampled_loss_prob
           << ", \"oracle_overload_probability\": " << o.overload_probability
           << ", \"oracle_utilization_quantiles\": ";
      emit_double_array(json, o.utilization_quantiles);
      json << ", \"sampled_utilization_quantiles\": ";
      emit_double_array(json, s.utilization_quantiles);
      json << " }";

      // The law-of-large-numbers teeth: at real sample counts the sweep is
      // broken if it has not converged on the means.
      if (scenario_count >= 50000 && (mean_err > 0.05 || delivered_err > 0.01)) {
        throw std::runtime_error("sampled storm failed to converge to the "
                                 "exhaustive oracle for " + o.name);
      }
    }
    json << "\n    ] }";
    std::cout << "\n";
  }
  bail_if_signalled();

  // -- Section 2 + 3: the full sampled storm -- determinism across thread
  // counts, throughput curve, streamed distributions and worst scenarios ----
  analysis::StormExperimentResult reference;
  bool have_reference = false;
  json << ",\n  \"threads\": [";
  std::cout << "-- Sampled storm, " << scenario_count
            << " scenarios: threads curve (bit-identity checked) --\n";
  bool first_threads = true;
  for (const std::size_t threads : {1U, 2U, 4U, 8U}) {
    if (threads_cap != 0 && threads > threads_cap) break;
    sim::SweepExecutor executor(threads);
    const auto start = Clock::now();
    auto result =
        analysis::run_storm_experiment(g, demand, plan, model, protocols, config, executor);
    const double ms = elapsed_ms(start);
    const double scen_per_s = ms > 0.0 ? static_cast<double>(scenario_count) * 1000.0 / ms
                                       : 0.0;
    if (have_reference) {
      require_identical(reference, result, threads);
    } else {
      reference = std::move(result);
      have_reference = true;
    }
    std::cout << "  " << std::setw(2) << threads << " thread(s): " << std::fixed
              << std::setprecision(0) << ms << " ms, " << scen_per_s
              << " scenarios/s\n";
    json << (first_threads ? "" : ",") << "\n    { \"threads\": " << threads
         << ", \"ms\": " << ms << ", \"scenarios_per_second\": " << scen_per_s
         << " }";
    first_threads = false;
  }
  json << "\n  ],\n  \"bit_identical_across_threads\": true";

  const double n = static_cast<double>(reference.scenarios);
  json << ",\n  \"calm_fraction\": "
       << static_cast<double>(reference.calm_scenarios) / n
       << ",\n  \"disconnected_fraction\": "
       << static_cast<double>(reference.disconnected_scenarios) / n
       << ",\n  \"mean_failed_groups\": " << reference.failed_groups.mean()
       << ",\n  \"mean_failed_edges\": " << reference.failed_edges.mean();

  std::cout << "\ncalm " << std::setprecision(3)
            << static_cast<double>(reference.calm_scenarios) / n << ", disconnected "
            << static_cast<double>(reference.disconnected_scenarios) / n
            << ", mean failed groups " << reference.failed_groups.mean() << "\n\n";

  json << ",\n  \"protocols\": [";
  for (std::size_t i = 0; i < reference.protocols.size(); ++i) {
    const analysis::StormProtocolResult& p = reference.protocols[i];
    json << (i == 0 ? "" : ",") << "\n    { \"protocol\": \"" << p.name << "\""
         << ", \"mean_max_utilization\": " << p.utilization.mean()
         << ", \"worst_max_utilization\": " << p.utilization.max
         << ", \"mean_max_stretch\": " << p.stretch.mean()
         << ", \"delivered_fraction\": "
         << p.delivered_fraction(reference.offered_pps, reference.scenarios)
         << ", \"overload_rate\": " << static_cast<double>(p.overloaded_scenarios) / n
         << ", \"loss_rate\": " << static_cast<double>(p.lossy_scenarios) / n
         << ", \"rerouted_flows\": " << p.rerouted_flows << ",\n      \"quantiles\": ";
    emit_double_array(json, p.quantiles);
    json << ", \"utilization_quantiles\": ";
    emit_double_array(json, p.utilization_quantiles);
    json << ", \"stretch_quantiles\": ";
    emit_double_array(json, p.stretch_quantiles);
    json << ",\n      \"worst\": [";

    std::cout << p.name << ": mean-U " << std::setprecision(4)
              << p.utilization.mean() << ", U quantiles {";
    for (std::size_t q = 0; q < p.quantiles.size(); ++q) {
      std::cout << (q == 0 ? "" : ", ") << "p" << std::setprecision(0)
                << p.quantiles[q] * 100 << ": " << std::setprecision(4)
                << p.utilization_quantiles[q];
    }
    std::cout << "}, delivered "
              << p.delivered_fraction(reference.offered_pps, reference.scenarios)
              << ", worst scenarios:\n";

    for (std::size_t k = 0; k < p.worst.size(); ++k) {
      const auto& entry = p.worst[k];
      const analysis::StormScenarioRecord& rec = entry.value;
      json << (k == 0 ? "" : ",") << "\n        { \"scenario\": " << entry.id
           << ", \"max_utilization\": " << rec.max_utilization
           << ", \"max_stretch\": " << rec.max_stretch
           << ", \"lost_pps\": " << rec.lost_pps
           << ", \"stranded_pps\": " << rec.stranded_pps
           << ", \"failed_edges\": " << rec.failed_edges << ", \"failed_groups\": [";
      for (std::size_t gi = 0; gi < rec.failed_groups.size(); ++gi) {
        json << (gi == 0 ? "" : ", ") << rec.failed_groups[gi];
      }
      json << "] }";
      if (k < 3) {
        std::cout << "  #" << entry.id << ": U " << std::setprecision(4)
                  << rec.max_utilization << ", " << rec.failed_groups.size()
                  << " groups / " << rec.failed_edges << " edges, lost "
                  << std::setprecision(0) << rec.lost_pps << " pps\n";
      }
    }
    json << "\n      ] }";
    std::cout << "\n";
  }
  json << "\n  ]";
  bail_if_signalled();

  // -- Section 3b: telemetry -- attach the obs layer, prove enabled ==
  // disabled bit for bit, and measure its overhead on the same warmed pool.
  // The progress line is opt-in (PR_PROGRESS=<ms>); the stall detector
  // (PR_STALL_MS, default 5 s) always reports to stderr because a stall is
  // exceptional by definition.
  obs::Registry registry;
  obs::TraceLog trace(1 << 16);
  obs::SweepProgress progress(obs::SweepProgress::options_from_env());
  if (std::getenv("PR_PROGRESS") != nullptr) {
    progress.on_snapshot([](const obs::ProgressSnapshot& s) {
      std::cerr << obs::SweepProgress::format_line(s) << "\n";
    });
  }
  progress.on_stall([](const obs::StallEvent& e) {
    std::cerr << "stall: worker " << e.worker << " unit " << e.unit
              << " in-flight " << e.in_flight_ns / 1000000 << " ms\n";
  });

  double telemetry_ms = 0.0;
  double overhead_fraction = 0.0;
  {
    sim::SweepExecutor executor(threads_cap);
    // Untimed warmup so neither leg pays the cold per-worker cache builds,
    // then interleaved best-of-2 plain/observed passes: interleaving cancels
    // machine drift, best-of cancels one-off scheduling noise.  A single
    // cold-vs-warm pair can misreport the sub-1% real cost by several
    // percent either way.
    const auto warmup =
        analysis::run_storm_experiment(g, demand, plan, model, protocols, config, executor);
    require_identical(reference, warmup, threads_cap);

    double plain_ms = std::numeric_limits<double>::infinity();
    telemetry_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      executor.set_telemetry(sim::SweepTelemetry{});
      auto t0 = Clock::now();
      const auto plain =
          analysis::run_storm_experiment(g, demand, plan, model, protocols, config, executor);
      plain_ms = std::min(plain_ms, elapsed_ms(t0));
      require_identical(reference, plain, threads_cap);

      registry.reset();
      trace.clear();
      executor.set_telemetry(sim::SweepTelemetry{&registry, &trace, &progress});
      t0 = Clock::now();
      const auto observed =
          analysis::run_storm_experiment(g, demand, plan, model, protocols, config, executor);
      telemetry_ms = std::min(telemetry_ms, elapsed_ms(t0));
      require_identical(reference, observed, threads_cap);
    }
    overhead_fraction = plain_ms > 0.0 ? (telemetry_ms - plain_ms) / plain_ms : 0.0;

    const obs::Counters total = registry.aggregate();
    const std::uint64_t hits = total.get(obs::Counter::kRouteCacheHits);
    const std::uint64_t lookups = hits + total.get(obs::Counter::kRouteCacheRebuilds) +
                                  total.get(obs::Counter::kRouteCachePristineBuilds);
    const std::uint64_t repairs = total.get(obs::Counter::kSpfRepairs) +
                                  total.get(obs::Counter::kSpfTreeRepairs);
    const std::uint64_t spf_ops = repairs + total.get(obs::Counter::kSpfFullBuilds);
    std::cout << "-- Telemetry: enabled run bit-identical to disabled, overhead "
              << std::setprecision(2) << overhead_fraction * 100.0 << "% ("
              << std::setprecision(0) << plain_ms << " -> " << telemetry_ms
              << " ms); cache hit rate " << std::setprecision(3)
              << (lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                              : 0.0)
              << ", SPF repair fraction "
              << (spf_ops > 0 ? static_cast<double>(repairs) / static_cast<double>(spf_ops)
                              : 0.0)
              << ", " << trace.size() << " trace spans --\n\n";
  }
  json << ",\n  \"telemetry\": " << obs::telemetry_json(registry, telemetry_ms)
       << ",\n  \"telemetry_overhead_fraction\": " << overhead_fraction
       << ",\n  \"telemetry_bit_identical\": true";
  bail_if_signalled();

  // -- Section 4: resilience -- interrupt the sweep, checkpoint, resume, and
  // require the resumed reducers bit-identical to the uninterrupted
  // reference.  A fault plan from the PR_FAULT_* environment (CI's
  // fault-injection smoke) rides along on the first leg; without one the
  // interrupt is a clean scenario budget at half the sweep.  Either way the
  // second leg resumes from the checkpoint with no faults and must land on
  // exactly the Section 2 reference.
  {
    sim::SweepExecutor executor(threads_cap);
    // The obs layer stays attached through the fault/deadline legs: injected
    // stalls exercise the stall detector, and the trace picks up fault,
    // truncation and checkpoint events for PR_TRACE_EXPORT.  Checkpoint
    // serialization runs on THIS driver thread, so it gets its own registry
    // lane (one past the workers) as the scoped sink.
    executor.set_telemetry(sim::SweepTelemetry{&registry, &trace, &progress});
    registry.ensure_workers(executor.thread_count() + 1);
    obs::ScopedSink driver_sink(&registry.worker(executor.thread_count()));
    const sim::FaultPlan faults = sim::FaultPlan::from_env();

    sim::RunControl control;
    control.set_unit_budget(scenario_count / 2);
    if (!faults.empty()) control.set_fault_plan(&faults);
    guard.rebind(control);  // a signal now cancels THIS leg's sweep
    analysis::StormRunOptions options;
    options.control = &control;
    const auto interrupt_start = Clock::now();
    const auto partial = analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, options);
    bail_if_signalled();

    sim::RunControl resume_control;
    guard.rebind(resume_control);
    analysis::StormRunOptions resume_options;
    resume_options.control = &resume_control;
    resume_options.resume_from = partial.checkpoint;
    const auto finished = analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, resume_options);
    const double interrupt_resume_ms = elapsed_ms(interrupt_start);
    bail_if_signalled();
    require_identical(reference, finished.result, threads_cap);

    std::cout << "-- Resilience: " << sim::to_string(partial.outcome.stop_reason)
              << " at " << partial.completed_scenarios << "/" << scenario_count
              << " (fault plan: " << faults.describe() << "), checkpoint "
              << partial.checkpoint.size() << " bytes, resume"
              << (finished.resumed ? "d" : " (fresh)")
              << " -> bit-identical to the uninterrupted sweep --\n";
    if (!partial.checkpoint_error.empty()) {
      std::cout << "   checkpoint error on the first leg: "
                << partial.checkpoint_error << "\n";
    }

    // Deadline leg: a wall-clock cut mid-sweep, then resume to completion.
    sim::RunControl deadline_control;
    deadline_control.set_timeout(std::chrono::milliseconds(25));
    guard.rebind(deadline_control);
    analysis::StormRunOptions deadline_options;
    deadline_options.control = &deadline_control;
    const auto cut = analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, deadline_options);
    bail_if_signalled();
    sim::RunControl finish_control;
    guard.rebind(finish_control);
    analysis::StormRunOptions finish_options;
    finish_options.control = &finish_control;
    finish_options.resume_from = cut.checkpoint;
    const auto completed = analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, finish_options);
    bail_if_signalled();
    require_identical(reference, completed.result, threads_cap);
    std::cout << "   deadline leg: " << sim::to_string(cut.outcome.stop_reason)
              << " at " << cut.completed_scenarios << "/" << scenario_count
              << ", resumed to completion, bit-identical\n\n";

    json << ",\n  \"resilience\": { \"fault_plan\": \"" << faults.describe()
         << "\",\n    \"stop_reason\": \""
         << sim::to_string(partial.outcome.stop_reason)
         << "\", \"completed_units\": " << partial.outcome.completed_units
         << ", \"checkpoint_bytes\": " << partial.checkpoint.size()
         << ", \"resumed\": " << (finished.resumed ? "true" : "false")
         << ", \"interrupt_resume_ms\": " << interrupt_resume_ms
         << ", \"bit_identical_after_resume\": true,\n    \"deadline\": { "
         << "\"timeout_ms\": 25, \"stop_reason\": \""
         << sim::to_string(cut.outcome.stop_reason)
         << "\", \"completed_units\": " << cut.outcome.completed_units
         << ", \"resumed\": " << (completed.resumed ? "true" : "false")
         << ", \"bit_identical_after_resume\": true } }";
  }

  json << ",\n  \"peak_rss_mb\": " << peak_rss_mb() << "\n}\n";

  std::cout << json.str();
  util::atomic_write_file("BENCH_failure_storms.json", json.str());
  std::cerr << "wrote BENCH_failure_storms.json (peak RSS " << peak_rss_mb()
            << " MB)\n";

  if (const char* path = std::getenv("PR_TRACE_EXPORT"); path != nullptr && *path != '\0') {
    util::atomic_write_file(path, trace.export_chrome_json());
    std::cerr << "wrote chrome://tracing export (" << trace.size() << " spans, "
              << trace.dropped() << " dropped) to " << path << "\n";
  }
  return 0;
}
