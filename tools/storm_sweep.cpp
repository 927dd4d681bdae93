// storm_sweep: a crash-safe storm-sweep runner around
// analysis::run_storm_experiment_resilient.
//
// This is the process the supervisor harness (tools/sweep_supervisor.cpp)
// babysits, and the smallest complete demonstration of the durability stack:
//
//   * a CheckpointStore under --ckpt-dir persists generation files with the
//     temp + fsync + rename idiom, rotates them past --keep, and quarantines
//     corrupt ones on load;
//   * --ckpt-every (or $PR_CKPT_EVERY) arms the executor's auto-checkpoints,
//     so a SIGKILL'd or aborted run loses only the scenarios reduced since
//     the last persisted generation: one cadence interval plus whatever
//     completed while that generation's persist was in flight;
//   * a sim::SignalGuard turns SIGINT/SIGTERM into a cooperative drain: the
//     sweep truncates to its canonical prefix, a final generation is
//     persisted, and the process exits sim::kInterruptedExitStatus (75) so a
//     supervisor can tell "resume me" from a crash;
//   * --resume-from-latest reloads the newest good generation and continues
//     the sweep to results BIT-IDENTICAL to an uninterrupted run -- the
//     state_digest printed at the end is the proof handle the tests compare
//     across kill/resume sequences.
//
// PR_FAULT_* variables (sim/fault_plan.hpp) inject crashes and stalls into
// the run, PR_SWEEP_THREADS pins the pool, and --emit-json writes a small
// machine-readable summary (atomically, like every other artifact).
//
//   $ storm_sweep --scenarios 20000 --threads 4 --ckpt-dir /tmp/store
//                 --ckpt-every 1000u --resume-from-latest
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/checkpoint.hpp"
#include "analysis/checkpoint_store.hpp"
#include "analysis/protocols.hpp"
#include "analysis/storm.hpp"
#include "analysis/traffic.hpp"
#include "net/storm_model.hpp"
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

constexpr double kTotalDemandPps = 1e6;
constexpr double kOutageProbability = 0.02;

struct Args {
  std::size_t scenarios = 20000;
  std::size_t threads = 0;  // 0 = PR_SWEEP_THREADS / hardware
  std::uint64_t seed = 0x5708;
  std::size_t top_k = 10;
  std::string topology = "geant";
  std::string ckpt_dir;
  std::string ckpt_every;  // empty = $PR_CKPT_EVERY
  std::size_t keep = 4;
  bool resume_from_latest = false;
  std::string emit_json;
};

[[noreturn]] void usage_error(const std::string& detail) {
  std::cerr << "storm_sweep: " << detail << "\n"
            << "usage: storm_sweep [--scenarios N] [--threads N] [--seed N]\n"
            << "                   [--top-k N] [--topology abilene|geant]\n"
            << "                   [--ckpt-dir DIR] [--ckpt-every SPEC] [--keep N]\n"
            << "                   [--resume-from-latest] [--emit-json PATH]\n";
  std::exit(1);
}

std::size_t count_arg(const char* value, const char* flag, std::size_t max_value) {
  std::size_t out = 0;
  if (!sim::parse_count_arg(value, max_value, out)) {
    usage_error(std::string(flag) + " expects a decimal in [0, " +
                std::to_string(max_value) + "], got '" + value + "'");
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(std::string(flag) + " expects a value");
      return argv[++i];
    };
    if (flag == "--scenarios") {
      args.scenarios = count_arg(value(), "--scenarios", 10000000);
      if (args.scenarios == 0) usage_error("--scenarios must be > 0");
    } else if (flag == "--threads") {
      args.threads = count_arg(value(), "--threads", sim::kMaxSweepThreads);
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          count_arg(value(), "--seed", std::numeric_limits<std::size_t>::max() - 1));
    } else if (flag == "--top-k") {
      args.top_k = count_arg(value(), "--top-k", 100);
      if (args.top_k == 0) usage_error("--top-k must be > 0");
    } else if (flag == "--topology") {
      args.topology = value();
      if (args.topology != "abilene" && args.topology != "geant") {
        usage_error("--topology must be 'abilene' or 'geant', got '" +
                    args.topology + "'");
      }
    } else if (flag == "--ckpt-dir") {
      args.ckpt_dir = value();
    } else if (flag == "--ckpt-every") {
      args.ckpt_every = value();
    } else if (flag == "--keep") {
      args.keep = count_arg(value(), "--keep", 100000);
      if (args.keep == 0) usage_error("--keep must be >= 1");
    } else if (flag == "--resume-from-latest") {
      args.resume_from_latest = true;
    } else if (flag == "--emit-json") {
      args.emit_json = value();
    } else {
      usage_error("unknown flag '" + std::string(flag) + "'");
    }
  }
  if (args.resume_from_latest && args.ckpt_dir.empty()) {
    usage_error("--resume-from-latest requires --ckpt-dir");
  }
  if (!args.ckpt_every.empty() && args.ckpt_dir.empty()) {
    usage_error("--ckpt-every requires --ckpt-dir");
  }
  return args;
}

std::string hex_digest(std::uint64_t digest) {
  std::ostringstream out;
  out << std::hex << digest;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  sim::CheckpointCadence cadence;
  sim::FaultPlan faults;
  try {
    cadence = args.ckpt_every.empty()
                  ? sim::CheckpointCadence::from_env()
                  : sim::CheckpointCadence::parse(args.ckpt_every, "--ckpt-every");
    faults = sim::FaultPlan::from_env();
  } catch (const std::invalid_argument& e) {
    std::cerr << "storm_sweep: " << e.what() << "\n";
    return 1;
  }

  const graph::Graph g = args.topology == "abilene" ? topo::abilene() : topo::geant();
  const analysis::ProtocolSuite suite(g);
  const std::vector<analysis::NamedFactory> protocols = {suite.pr(), suite.lfa(),
                                                         suite.reconvergence()};
  const traffic::TrafficMatrix demand =
      traffic::gravity_demand(g, kTotalDemandPps, traffic::GravityMass::kDegree);
  const traffic::CapacityPlan plan =
      analysis::baseline_capacity_plan(g, demand, suite.spf());
  const net::SrlgCatalog catalog = net::geographic_srlgs(g, 2);
  const net::IndependentOutages model =
      net::IndependentOutages::uniform(catalog, kOutageProbability);

  analysis::StormSweepConfig config;
  config.scenarios = args.scenarios;
  config.seed = args.seed;
  config.top_k = args.top_k;

  const std::size_t threads =
      args.threads != 0 ? args.threads : sim::threads_from_env(0);
  sim::SweepExecutor executor(threads);

  sim::RunControl control;
  if (!faults.empty()) {
    control.set_fault_plan(&faults);
    std::cerr << "storm_sweep: fault plan: " << faults.describe() << "\n";
  }
  // Installed before the store is opened: a SIGTERM during a slow resume scan
  // still cancels the sweep before it claims a single unit.
  sim::SignalGuard guard(control);

  std::optional<analysis::CheckpointStore> store;
  analysis::StormRunOptions options;
  options.control = &control;
  std::string resume_blob;  // must outlive the run (options holds a view)
  std::uint64_t resumed_generation = 0;
  try {
    if (!args.ckpt_dir.empty()) {
      store.emplace(args.ckpt_dir,
                    analysis::CheckpointStoreOptions{.keep_generations = args.keep});
      if (args.resume_from_latest) {
        if (auto loaded = store->load_latest()) {
          resumed_generation = loaded->generation;
          resume_blob = std::move(loaded->blob);
          options.resume_from = resume_blob;
          std::cerr << "storm_sweep: resuming from generation "
                    << resumed_generation << "\n";
        } else {
          std::cerr << "storm_sweep: no good generation to resume from; "
                       "starting fresh\n";
        }
        if (store->quarantined() > 0) {
          std::cerr << "storm_sweep: quarantined " << store->quarantined()
                    << " corrupt generation(s)\n";
        }
      }
      if (cadence.any()) {
        options.checkpoint_cadence = cadence;
        options.persist_checkpoint = [&store](std::size_t completed,
                                              std::string&& blob) {
          const std::uint64_t gen = store->persist(blob);
          std::cerr << "storm_sweep: checkpoint generation " << gen << " at "
                    << completed << " scenarios\n";
        };
      }
    }

    const analysis::StormRunResult run = run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, options);

    // Persist the final state as its own generation: a graceful stop (signal,
    // deadline, budget) must leave the newest generation AT the stop cursor,
    // not one cadence interval behind it.
    std::uint64_t final_generation = 0;
    if (store.has_value() && !run.checkpoint.empty()) {
      final_generation = store->persist(run.checkpoint);
    }
    const std::uint64_t digest =
        run.checkpoint.empty() ? 0 : analysis::checkpoint_digest(run.checkpoint);

    std::cout << "storm_sweep: topology=" << args.topology
              << " scenarios=" << args.scenarios
              << " threads=" << executor.thread_count() << " seed=" << args.seed
              << "\n"
              << "storm_sweep: stop=" << to_string(run.outcome.stop_reason)
              << " completed=" << run.completed_scenarios
              << " resumed=" << (run.resumed ? 1 : 0)
              << " auto_checkpoints=" << run.outcome.auto_checkpoints
              << " checkpoint_failures=" << run.outcome.checkpoint_failures
              << "\n"
              << "storm_sweep: final_generation=" << final_generation
              << " state_digest=" << hex_digest(digest) << "\n";
    if (!run.checkpoint_error.empty()) {
      std::cerr << "storm_sweep: final checkpoint failed: "
                << run.checkpoint_error << "\n";
    }

    if (!args.emit_json.empty()) {
      std::ostringstream json;
      json << "{\n  \"tool\": \"storm_sweep\",\n  \"topology\": \""
           << args.topology << "\",\n  \"scenarios\": " << args.scenarios
           << ",\n  \"threads\": " << executor.thread_count()
           << ",\n  \"seed\": " << args.seed << ",\n  \"stop_reason\": \""
           << to_string(run.outcome.stop_reason)
           << "\",\n  \"completed_scenarios\": " << run.completed_scenarios
           << ",\n  \"resumed\": " << (run.resumed ? "true" : "false")
           << ",\n  \"auto_checkpoints\": " << run.outcome.auto_checkpoints
           << ",\n  \"checkpoint_failures\": " << run.outcome.checkpoint_failures
           << ",\n  \"final_generation\": " << final_generation
           << ",\n  \"state_digest\": \"" << hex_digest(digest) << "\"\n}\n";
      util::atomic_write_file(args.emit_json, json.str());
    }

    if (guard.triggered()) {
      std::cerr << "storm_sweep: interrupted by signal " << guard.signal_number()
                << "; state saved, exit " << sim::kInterruptedExitStatus << "\n";
      return guard.exit_status();
    }
    if (!run.complete()) {
      // Stopped without a signal (deadline, budget, contained error): state
      // is saved, but the job is not done -- a distinct status so callers do
      // not mistake a truncated run for success.  The supervisor relaunches
      // on this and the resume converges.
      std::cerr << "storm_sweep: stopped early (" << to_string(run.outcome.stop_reason)
                << "), exit 2\n";
      return 2;
    }
    if (!run.checkpoint_error.empty()) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "storm_sweep: fatal: " << e.what() << "\n";
    return 1;
  }
}
