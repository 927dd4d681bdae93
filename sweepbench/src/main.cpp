// sweep_bench: one workload of the sweep benchmark, end to end or traced.
//
//   sweep_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--scenarios N] [--setup-reps N] [--trace-out PATH]
//
// End to end (--trace 0): set the workload up --setup-reps times (setup_s is
// the median), then call the public driver on a fresh executor until S
// seconds have passed (at least three times), and report the median
// scenarios_per_s and cpu_ms_per_scenario over those calls and the process
// peak RSS.  Every call must digest identically, and an untimed prefix of
// the scenarios is re-priced through the full-re-route oracle.
//
// Traced (--trace 1): set up once while timing each set-up layer's public
// constructor, then make four calls on fresh executors -- the untraced
// driver, the replica with spans (replica.hpp), the driver with an
// obs::Registry attached, and the untraced driver again -- which must all
// digest identically, and derive the per-layer metrics.  The spans go to
// --trace-out as chrome://tracing JSON.
//
// The last stdout line is one JSON object; sweepbench/run.py turns it into
// the benchmark's result line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/storm.hpp"
#include "core/cycle_table.hpp"
#include "embed/embedder.hpp"
#include "obs/telemetry.hpp"
#include "replica.hpp"
#include "route/lfa.hpp"
#include "route/routing_db.hpp"
#include "sim/run_control.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace sweepbench;
using Clock = std::chrono::steady_clock;

/// End-to-end driver calls per run, whatever --seconds says: the reported
/// figures are medians over calls.
constexpr std::size_t kMinCalls = 3;

/// Scenarios of the driver calls started so far, for the error report.
std::size_t g_attempted = 0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  int trace = 0;
  std::size_t scenarios = 0;   // 0 = the workload's list
  std::size_t setup_reps = 0;  // 0 = the workload's count
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& detail) {
  std::cerr << "sweep_bench: " << detail << "\n"
            << "usage: sweep_bench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "                   [--scenarios N] [--setup-reps N] [--trace-out PATH]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* raw) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (errno != 0 || end == raw || *end != '\0' || raw[0] == '-') {
    usage(flag + " expects a non-negative integer, got '" + raw + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " expects a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
      args.seed_given = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage("--trace expects 0 or 1");
      args.trace = static_cast<int>(t);
    } else if (flag == "--scenarios") {
      args.scenarios = parse_u64(flag, value);
      if (args.scenarios == 0) usage("--scenarios must be > 0");
    } else if (flag == "--setup-reps") {
      args.setup_reps = parse_u64(flag, value);
      if (args.setup_reps == 0) usage("--setup-reps must be > 0");
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------------
// Minimal JSON emission: every number with all its digits.

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string one_line(std::string json) {
  std::replace(json.begin(), json.end(), '\n', ' ');
  return json;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// An insertion-ordered JSON object under construction.
class Object {
 public:
  Object& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  Object& number(const std::string& key, double v) { return raw(key, num(v)); }
  Object& text(const std::string& key, const std::string& v) { return raw(key, quoted(v)); }
  Object& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + num(values[i]);
  return out + "]";
}

/// A metric as the result line carries it.
std::string metric(double value, const char* unit) {
  return Object().number("value", value).text("unit", unit).str();
}

std::string provenance() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(PR_OBS_DISABLED)
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif
  return Object()
      .number("nproc", std::thread::hardware_concurrency())
      .number("affinity_cpus", affinity)
      .text("compiler", SWEEPBENCH_COMPILER)
      .text("build_type", SWEEPBENCH_BUILD_TYPE)
      .flag("PR_OBS_DISABLED", obs_disabled)
      .str();
}

Object run_header(const WorkloadSpec& spec, const Args& args, const Instance& inst,
                  const char* mode) {
  return Object()
      .text("mode", mode)
      .text("workload", std::string(spec.name))
      .raw("seed", std::to_string(args.seed))
      .raw("default_seed", std::to_string(spec.default_seed))
      .flag("seeded", spec.seeded)
      .flag("default_list", args.scenarios == 0)
      .number("threads", static_cast<double>(kThreads))
      .number("nodes", static_cast<double>(inst.graph.node_count()))
      .number("links", static_cast<double>(inst.graph.edge_count()))
      .number("scenarios_per_call", static_cast<double>(inst.scenario_count()));
}

// ---------------------------------------------------------------------------
// End to end.

std::string run_end_to_end(const WorkloadSpec& spec, const Args& args,
                           Clock::time_point main_entry) {
  const std::size_t list = args.scenarios != 0 ? args.scenarios : spec.scenarios;
  const std::size_t setup_reps = args.setup_reps != 0 ? args.setup_reps : spec.setup_reps;

  // setup_s: entering main (then, for later repetitions, the start of set-up)
  // to the point the first driver call would be made.  The previous
  // repetition's instance is released before the next one is built.
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    inst.reset();
    const Clock::time_point start = rep == 0 ? main_entry : Clock::now();
    inst = set_up(spec, args.seed, list);
    setup_s.push_back(seconds_since(start));
  }
  const std::size_t n = inst->scenario_count();

  // Driver calls, each on a fresh executor so every call pays the workers'
  // lazy pristine-table builds as a user's first call does.  Only the call
  // itself is timed; its result is digested and released afterwards.
  std::vector<double> rates;
  std::vector<double> cpu_ms;
  std::vector<std::string> digests;
  PrefixRows rows;
  std::unique_ptr<sim::SweepExecutor> executor = std::move(inst->executor);
  const auto measure_start = Clock::now();
  while (rates.size() < kMinCalls || seconds_since(measure_start) < args.seconds) {
    if (!rates.empty()) {
      executor.reset();
      executor = std::make_unique<sim::SweepExecutor>(kThreads);
    }
    g_attempted += n;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    DriverResult result = call_driver(*inst, *executor);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    rates.push_back(static_cast<double>(n) / wall);
    cpu_ms.push_back(cpu * 1e3 / static_cast<double>(n));
    digests.push_back(hex(digest(result)));
    if (digests.size() == 1) rows = prefix_rows(result, spec.oracle_prefix);
  }
  const double rss = peak_rss_mb();
  executor.reset();

  const bool identical =
      std::all_of(digests.begin(), digests.end(), [&](const auto& d) { return d == digests[0]; });
  sim::SweepExecutor oracle_executor(kThreads);
  const std::string oracle = check_oracle_prefix(*inst, oracle_executor, rows);

  return run_header(spec, args, *inst, "e2e")
      .number("calls", static_cast<double>(rates.size()))
      .number("attempted", static_cast<double>(n * rates.size()))
      .text("digest", digests[0])
      .raw("checks", Object()
                         .flag("calls_identical", identical)
                         .text("oracle_prefix", oracle.empty() ? "ok" : oracle)
                         .number("oracle_prefix_scenarios",
                                 static_cast<double>(std::min(spec.oracle_prefix, n)))
                         .str())
      .raw("metrics", Object()
                          .raw("scenarios_per_s", metric(median(rates), "1/s"))
                          .raw("cpu_ms_per_scenario", metric(median(cpu_ms), "ms"))
                          .raw("peak_rss_mb", metric(rss, "MB"))
                          .raw("setup_s", metric(median(setup_s), "s"))
                          .str())
      .raw("samples", Object()
                          .raw("scenarios_per_s", array(rates))
                          .raw("cpu_ms_per_scenario", array(cpu_ms))
                          .raw("setup_s", array(setup_s))
                          .str())
      .raw("provenance", provenance())
      .str();
}

// ---------------------------------------------------------------------------
// Traced.

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string run_traced(const WorkloadSpec& spec, const Args& args) {
  const std::size_t list = args.scenarios != 0 ? args.scenarios : spec.scenarios;
  std::unique_ptr<Instance> inst = set_up(spec, args.seed, list);
  const graph::Graph& g = inst->graph;
  const std::size_t n = inst->scenario_count();
  g_attempted = n;

  // Set-up layers, each public constructor timed on its own.
  auto t = Clock::now();
  { const embed::Embedding e = embed::embed(g); }
  const double embed_ms = ms_since(t);
  t = Clock::now();
  const route::RoutingDb tables(g, nullptr, inst->suite->routes().discriminator_kind());
  const double tables_ms = ms_since(t);
  t = Clock::now();
  { const core::CycleFollowingTable cycles(inst->suite->embedding().rotation); }
  const double cycle_ms = ms_since(t);
  t = Clock::now();
  {
    const route::LfaRouting link(tables, route::LfaKind::kLinkProtecting);
    const route::LfaRouting node(tables, route::LfaKind::kNodeProtecting);
  }
  const double lfa_ms = ms_since(t);
  t = Clock::now();
  plan_demand(*inst);
  const double demand_plan_ms = ms_since(t);
  t = Clock::now();
  build_scenarios(*inst, list);
  const double scenario_list_ms = ms_since(t);
  const embed::Embedding& embedding = inst->suite->embedding();
  const std::size_t self_paired = embed::self_paired_edges(g, embedding.faces).size();

  // 1. The untraced driver call: the reference result and wall time.  It
  //    runs again after the other two calls, and the overhead compares the
  //    replica against the mean of both untraced walls.
  inst->executor.reset();
  std::uint64_t reference = 0;
  const auto untraced_call = [&] {
    sim::SweepExecutor executor(kThreads);
    const auto start = Clock::now();
    const DriverResult result = call_driver(*inst, executor);
    const double wall = ms_since(start);
    const std::uint64_t d = digest(result);
    if (reference != 0 && d != reference) {
      throw std::runtime_error("two untraced driver calls digest differently");
    }
    reference = d;
    return wall;
  };
  const double untraced_first_ms = untraced_call();

  // 2. The replica with spans.
  ReplicaRun replica;
  {
    sim::SweepExecutor executor(kThreads);
    replica = replay(*inst, executor);
  }

  // 3. The driver with the library's own counters attached; the storm run
  //    also auto-checkpoints into an in-memory hook, whose blobs feed
  //    analysis.checkpoint_bytes.
  obs::Registry registry;
  obs::Counters driver_lane;  // the calling thread: index pass, final seal
  double telemetry_ms = 0.0;
  std::optional<DriverResult> telemetry_result;
  std::size_t auto_checkpoints = 0;
  std::size_t auto_checkpoint_bytes = 0;
  {
    sim::SweepExecutor executor(kThreads);
    executor.set_telemetry(sim::SweepTelemetry{&registry, nullptr, nullptr});
    const obs::ScopedSink sink(&driver_lane);
    t = Clock::now();
    if (spec.driver == Driver::kStorm) {
      const sim::RunControl control;
      analysis::StormRunOptions options;
      options.control = &control;
      options.checkpoint_cadence.units = std::max<std::size_t>(1, n / 8);
      options.persist_checkpoint = [&](std::size_t, std::string&& blob) {
        ++auto_checkpoints;
        auto_checkpoint_bytes += blob.size();
      };
      analysis::StormRunResult run = analysis::run_storm_experiment_resilient(
          g, inst->demand, inst->plan, *inst->model, inst->protocols, inst->storm, executor,
          options);
      telemetry_ms = ms_since(t);
      telemetry_result = std::move(run.result);
    } else {
      telemetry_result = call_driver(*inst, executor);
      telemetry_ms = ms_since(t);
    }
  }
  // Digested outside the sink: the encoding runs through CheckpointWriter,
  // which would count itself into driver_lane.
  const std::uint64_t telemetry_digest = digest(*telemetry_result);

  const double untraced_ms = (untraced_first_ms + untraced_call()) / 2.0;

  const TraceSummary spans = summarize(replica.logs);
  const auto layer = [&](Layer l) -> const LayerStats& {
    return spans.layers[static_cast<std::size_t>(l)];
  };
  const obs::Counters lib = registry.aggregate();
  const auto count = [&](obs::Counter c) { return static_cast<double>(lib.get(c)); };
  double min_utilization = 1.0;
  for (std::size_t w = 0; w < registry.worker_count(); ++w) {
    const double busy_ms =
        static_cast<double>(registry.worker(w).phase_nanos(obs::Phase::kUnit)) / 1e6;
    min_utilization = std::min(min_utilization, ratio(busy_ms, telemetry_ms));
  }
  // The traffic driver's reduce: its canonical merge after the pool joins.
  double merge_ms = 0.0;
  for (const Span& s : replica.logs[0].spans()) {
    if (s.layer == Layer::kReduce) merge_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  // Storm: the armed hook's blobs and the final seal give the bytes per
  // seal; only the final seal, on the driving thread's sink, is timed (the
  // executor's monitor thread seals the others without a sink).
  const bool storm = spec.driver == Driver::kStorm;
  const double final_seals = static_cast<double>(driver_lane.get(obs::Counter::kCheckpoints));
  const double seal_ms =
      storm ? ratio(static_cast<double>(driver_lane.phase_nanos(obs::Phase::kCheckpoint)) / 1e6,
                    final_seals)
            : replica.checkpoint_ms;
  const double seal_bytes =
      storm ? ratio(static_cast<double>(auto_checkpoint_bytes +
                                        driver_lane.get(obs::Counter::kCheckpointBytes)),
                    static_cast<double>(auto_checkpoints) + final_seals)
            : static_cast<double>(replica.checkpoint_bytes);
  const double route_batch_ms = layer(Layer::kRouteBatch).self_ms;
  const double replay_ms = layer(Layer::kReplay).self_ms;
  const ReplicaCounts& c = replica.counts;

  Object metrics;
  metrics.raw("embed.embed_ms", metric(embed_ms, "ms"))
      .raw("route.tables_build_ms", metric(tables_ms, "ms"))
      .raw("route.lfa_build_ms", metric(lfa_ms, "ms"))
      .raw("core.cycle_table_build_ms", metric(cycle_ms, "ms"))
      .raw("traffic.demand_plan_ms", metric(demand_plan_ms, "ms"))
      .raw("embed.genus", metric(embedding.genus, "count"))
      .raw("embed.self_paired_links", metric(static_cast<double>(self_paired), "count"))
      .raw("traffic.index_build_ms", metric(layer(Layer::kIndexBuild).self_ms, "ms"))
      .raw("traffic.probe_ms", metric(layer(Layer::kProbe).self_ms, "ms"))
      .raw("traffic.affected_fraction",
           metric(ratio(static_cast<double>(c.affected_flows), static_cast<double>(c.probed_flows)),
                  "fraction"))
      .raw("route.repair_ms", metric(layer(Layer::kRepair).self_ms, "ms"))
      .raw("graph.spf_orphan_nodes", metric(count(obs::Counter::kSpfOrphanNodes), "count"))
      .raw("route.cache_hit_rate",
           metric(ratio(count(obs::Counter::kRouteCacheHits),
                        count(obs::Counter::kRouteCacheHits) +
                            count(obs::Counter::kRouteCacheRebuilds) +
                            count(obs::Counter::kRouteCachePristineBuilds)),
                  "fraction"))
      .raw("sim.route_batch_ms", metric(route_batch_ms, "ms"))
      .raw("sim.forward_hops", metric(count(obs::Counter::kForwardHops), "count"))
      .raw("sim.ns_per_hop",
           metric(ratio(route_batch_ms * 1e6, static_cast<double>(c.forward_hops)), "ns"))
      .raw("sim.cycle_follow_share",
           metric(ratio(count(obs::Counter::kCycleFollowHops), count(obs::Counter::kForwardHops)),
                  "fraction"))
      .raw("sim.stranded_hop_share",
           metric(ratio(static_cast<double>(c.stranded_hops), static_cast<double>(c.forward_hops)),
                  "fraction"))
      .raw("sim.ttl_drops", metric(static_cast<double>(c.ttl_drops), "count"))
      .raw("sim.max_batch_hops", metric(static_cast<double>(c.max_batch_hops), "count"))
      .raw("traffic.replay_ms", metric(replay_ms, "ms"))
      .raw("traffic.replay_ns_per_dart",
           metric(ratio(replay_ms * 1e6, static_cast<double>(c.replayed_darts)), "ns"))
      .raw("sim.worker_utilization", metric(min_utilization, "fraction"))
      .raw("sim.reduce_ms",
           metric(storm ? static_cast<double>(lib.phase_nanos(obs::Phase::kReduce)) / 1e6
                        : merge_ms,
                  "ms"))
      .raw("net.sample_ms",
           metric(storm ? layer(Layer::kSample).self_ms : scenario_list_ms, "ms"))
      .raw("graph.components_ms", metric(layer(Layer::kComponents).self_ms, "ms"))
      .raw("analysis.make_protocol_ms", metric(layer(Layer::kMakeProtocol).self_ms, "ms"))
      .raw("traffic.utilization_ms", metric(layer(Layer::kUtilization).self_ms, "ms"))
      .raw("analysis.reduce_ms", metric(layer(Layer::kReduce).self_ms, "ms"))
      .raw("analysis.checkpoint_ms", metric(seal_ms, "ms"))
      .raw("analysis.checkpoint_bytes", metric(seal_bytes, "bytes"))
      .raw("analysis.cell_ms_p50", metric(quantile_sorted(spans.cell_ms, 0.50), "ms"))
      .raw("analysis.cell_ms_p99", metric(quantile_sorted(spans.cell_ms, 0.99), "ms"))
      .raw("analysis.cell_samples", metric(static_cast<double>(spans.cell_ms.size()), "count"))
      .raw("analysis.layer_coverage", metric(spans.coverage, "fraction"))
      .raw("obs.trace_overhead",
           metric(ratio(replica.wall_ms - untraced_ms, untraced_ms), "fraction"));

  Object layers;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const LayerStats& s = spans.layers[l];
    layers.raw(layer_name(static_cast<Layer>(l)), Object()
                                                      .number("self_ms", s.self_ms)
                                                      .number("calls", static_cast<double>(s.calls))
                                                      .number("p50_ms", s.p50_ms)
                                                      .number("p99_ms", s.p99_ms)
                                                      .str());
  }

  std::string trace_file;
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::binary | std::ios::trunc);
    out << chrome_trace_json(replica.logs);
    if (!out) throw std::runtime_error("cannot write " + args.trace_out);
    trace_file = args.trace_out;
  }

  return run_header(spec, args, *inst, "trace")
      .number("calls", 4)
      .number("attempted", static_cast<double>(n))
      .text("digest", hex(reference))
      .raw("checks",
           Object()
               .flag("replica_identical", replica.digest == reference)
               .flag("telemetry_identical", telemetry_digest == reference)
               .flag("replica_hops_match", static_cast<double>(c.forward_hops) ==
                                               count(obs::Counter::kForwardHops))
               .flag("coverage_ok", spans.coverage >= 0.95)
               .str())
      .raw("metrics", metrics.str())
      .raw("layers", layers.str())
      .raw("walls_ms", Object()
                           .number("untraced", untraced_ms)
                           .number("replica", replica.wall_ms)
                           .number("telemetry", telemetry_ms)
                           .str())
      .raw("auto_checkpoints", Object()
                                   .number("count", static_cast<double>(auto_checkpoints))
                                   .number("bytes", static_cast<double>(auto_checkpoint_bytes))
                                   .str())
      .raw("library_telemetry", one_line(obs::telemetry_json(registry, telemetry_ms, 0)))
      .text("trace_file", trace_file)
      .raw("provenance", provenance())
      .str();
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point main_entry = Clock::now();
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");
  if (!args.seed_given) usage("--seed is required");
  try {
    std::cout << (args.trace == 0 ? run_end_to_end(*spec, args, main_entry)
                                  : run_traced(*spec, args))
              << std::endl;
  } catch (const std::exception& e) {
    // A unit error or any other failure: the run reports every scenario
    // failed instead of a measurement.
    const auto attempted = static_cast<double>(std::max<std::size_t>(1, g_attempted));
    std::cout << Object()
                     .text("mode", args.trace == 0 ? "e2e" : "trace")
                     .text("workload", args.workload)
                     .number("attempted", attempted)
                     .text("error", e.what())
                     .str()
              << std::endl;
  }
  return 0;
}
