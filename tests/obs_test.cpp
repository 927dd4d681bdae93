// Telemetry subsystem contract (src/obs/): counter cells and scoped sinks,
// phase timers, registry merges, the bounded trace ring, synthetic-clock
// progress/stall detection -- and above all the determinism guarantee: a
// storm sweep with full telemetry attached (counters + trace + driver sink)
// produces results and checkpoint blobs BYTE-IDENTICAL to a telemetry-free
// run, at 1, 2 and 8 threads.  Telemetry observes; it must never steer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/storm.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"
#include "net/storm_model.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_log.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/run_control.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"

namespace pr {
namespace {

using obs::Counter;
using obs::Counters;
using obs::Phase;
using obs::ProgressSnapshot;
using obs::Registry;
using obs::ScopedSink;
using obs::SpanKind;
using obs::StallEvent;
using obs::SweepProgress;
using obs::TraceLog;
using obs::TraceSpan;

// ---- Counters / sinks ------------------------------------------------------

TEST(ObsCounters, AddGetMergeReset) {
  Counters a;
  a.add(Counter::kSpfRepairs);
  a.add(Counter::kSpfRepairs, 4);
  a.add_phase(Phase::kUnit, 100);
  a.add_phase(Phase::kUnit, 50);
  EXPECT_EQ(a.get(Counter::kSpfRepairs), 5u);
  EXPECT_EQ(a.phase_nanos(Phase::kUnit), 150u);
  EXPECT_EQ(a.phase_calls(Phase::kUnit), 2u);

  Counters b;
  b.add(Counter::kSpfRepairs, 10);
  b.add(Counter::kRouteCacheHits, 3);
  b.merge(a);
  EXPECT_EQ(b.get(Counter::kSpfRepairs), 15u);
  EXPECT_EQ(b.get(Counter::kRouteCacheHits), 3u);
  EXPECT_EQ(b.phase_nanos(Phase::kUnit), 150u);

  b.reset();
  EXPECT_EQ(b, Counters{});
}

TEST(ObsCounters, NoSinkByDefaultAndCountIsSafe) {
  EXPECT_FALSE(obs::enabled());
  EXPECT_EQ(obs::sink(), nullptr);
  obs::count(Counter::kSpfFullBuilds, 7);  // must be a harmless no-op
}

TEST(ObsCounters, ScopedSinkInstallsNestsAndRestores) {
  Counters outer_cell;
  Counters inner_cell;
  {
    ScopedSink outer(&outer_cell);
#if !defined(PR_OBS_DISABLED)
    EXPECT_TRUE(obs::enabled());
#endif
    obs::count(Counter::kFlowsRouted, 2);
    {
      ScopedSink inner(&inner_cell);
      obs::count(Counter::kFlowsRouted, 5);
      {
        ScopedSink off(nullptr);  // nullptr disables within the scope
        EXPECT_FALSE(obs::enabled());
        obs::count(Counter::kFlowsRouted, 100);
      }
    }
    obs::count(Counter::kFlowsRouted);  // back on the outer sink
  }
  EXPECT_FALSE(obs::enabled());
#if !defined(PR_OBS_DISABLED)
  EXPECT_EQ(outer_cell.get(Counter::kFlowsRouted), 3u);
  EXPECT_EQ(inner_cell.get(Counter::kFlowsRouted), 5u);
#endif
}

TEST(ObsCounters, PhaseTimerAttributesToSinkAtConstruction) {
  Counters cell;
  {
    ScopedSink sink(&cell);
    obs::PhaseTimer timer(Phase::kCheckpoint);
  }
#if !defined(PR_OBS_DISABLED)
  EXPECT_EQ(cell.phase_calls(Phase::kCheckpoint), 1u);
#endif
  {
    // No sink installed: the timer must not attribute anywhere (nor crash).
    obs::PhaseTimer timer(Phase::kCheckpoint);
  }
}

TEST(ObsRegistry, EnsureWorkersGrowsOnlyAndAggregatesCanonically) {
  Registry registry(2);
  registry.worker(0).add(Counter::kUnitsExecuted, 3);
  registry.worker(1).add(Counter::kUnitsExecuted, 4);
  registry.ensure_workers(4);
  EXPECT_EQ(registry.worker_count(), 4u);
  EXPECT_EQ(registry.worker(0).get(Counter::kUnitsExecuted), 3u);  // preserved
  registry.ensure_workers(1);  // never shrinks
  EXPECT_EQ(registry.worker_count(), 4u);
  registry.worker(3).add(Counter::kUnitsExecuted, 5);

  const Counters total = registry.aggregate();
  EXPECT_EQ(total.get(Counter::kUnitsExecuted), 12u);
  // Canonical merge is stable: repeated aggregation yields identical blocks.
  EXPECT_EQ(registry.aggregate(), total);
}

TEST(ObsTelemetryJson, EmitsDerivedRatesCountersAndPerWorkerRows) {
  Registry registry(2);
  registry.worker(0).add(Counter::kRouteCacheHits, 9);
  registry.worker(0).add(Counter::kRouteCacheRebuilds, 1);
  registry.worker(1).add(Counter::kSpfTreeRepairs, 3);
  registry.worker(1).add(Counter::kSpfFullBuilds, 1);
  registry.worker(1).add(Counter::kUnitsExecuted, 10);
  registry.worker(1).add_phase(Phase::kUnit, 5'000'000);
  registry.worker(0).add(Counter::kForwardHops, 6);
  registry.worker(1).add(Counter::kForwardHops, 2);
  registry.worker(1).add(Counter::kForwardDecisions, 2);
  registry.worker(0).add(Counter::kForwardJoins, 1);

  const std::string json = obs::telemetry_json(registry, /*elapsed_ms=*/10.0);
  EXPECT_NE(json.find("\"cache_hit_rate\": 0.900000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"repair_fraction\": 0.750000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"decision_fraction\": 0.250000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"forward_decisions\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"forward_joins\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"route_cache_hits\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"per_worker\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\": 0.5000"), std::string::npos) << json;
  // elapsed_ms <= 0 suppresses the utilization column.
  EXPECT_EQ(obs::telemetry_json(registry, 0.0).find("utilization"),
            std::string::npos);
}

// ---- TraceLog --------------------------------------------------------------

TEST(ObsTraceLog, RecordsUpToCapacityThenCountsDrops) {
  TraceLog log(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    TraceSpan span;
    span.kind = SpanKind::kUnit;
    span.worker = 0;
    span.unit = i;
    span.start_ns = 100 + i;
    span.end_ns = 200 + i;
    log.record(span);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.span(3).unit, 3u);

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  log.record_instant(SpanKind::kStall, 1, 42, 7);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.span(0).start_ns, log.span(0).end_ns);
  EXPECT_EQ(log.span(0).detail, 7u);
}

TEST(ObsTraceLog, ExportsChromeTracingJson) {
  TraceLog log(8);
  TraceSpan span;
  span.kind = SpanKind::kUnit;
  span.worker = 2;
  span.unit = 11;
  span.start_ns = 5'000;
  span.end_ns = 9'000;
  log.record(span);
  log.record_instant(SpanKind::kFault, 1, 3);

  const std::string json = log.export_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  // Durations are microseconds relative to the earliest span: 4000ns -> 4us.
  EXPECT_NE(json.find("\"dur\": 4"), std::string::npos) << json;
}

// ---- SweepProgress (synthetic clock) ---------------------------------------

TEST(ObsProgress, SnapshotMathUnderSyntheticClock) {
  SweepProgress progress;
  progress.begin_job(/*workers=*/2, /*units_total=*/10, /*now_ns=*/1'000);
  progress.unit_started(0, 7, 1'000);
  progress.unit_finished(0, 2'000);  // 1000ns busy
  ProgressSnapshot s = progress.snapshot(3'000);
  EXPECT_EQ(s.units_done, 1u);
  EXPECT_EQ(s.units_total, 10u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_DOUBLE_EQ(s.units_per_sec, 1e9 / 2'000.0);
  EXPECT_DOUBLE_EQ(s.eta_sec, 9.0 * 2'000.0 / 1e9);
  ASSERT_EQ(s.utilization.size(), 2u);
  EXPECT_DOUBLE_EQ(s.utilization[0], 0.5);
  EXPECT_DOUBLE_EQ(s.utilization[1], 0.0);

  // An in-flight unit earns partial busy credit and counts as in_flight.
  progress.unit_started(1, 8, 3'000);
  s = progress.snapshot(5'000);
  EXPECT_EQ(s.in_flight, 1u);
  EXPECT_DOUBLE_EQ(s.utilization[1], 2'000.0 / 4'000.0);

  const std::string line = SweepProgress::format_line(s);
  EXPECT_NE(line.find("progress: 1/10 units"), std::string::npos) << line;
  EXPECT_NE(line.find("eta"), std::string::npos) << line;
  EXPECT_NE(line.find("busy 1/2"), std::string::npos) << line;
}

TEST(ObsProgress, StallFiresOncePerClaim) {
  SweepProgress::Options options;
  options.stall_after_ns = 1'000;
  SweepProgress progress(options);
  std::vector<StallEvent> events;
  progress.on_stall([&](const StallEvent& e) { events.push_back(e); });

  progress.begin_job(1, 4, 0);
  progress.unit_started(0, 42, 100);
  progress.tick(1'000);  // in flight 900ns < threshold
  EXPECT_EQ(progress.stalls_detected(), 0u);
  progress.tick(1'200);  // 1100ns >= threshold -> fires
  progress.tick(5'000);  // same claim: must not fire again
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(progress.stalls_detected(), 1u);
  EXPECT_EQ(events[0].worker, 0u);
  EXPECT_EQ(events[0].unit, 42u);
  EXPECT_GE(events[0].in_flight_ns, 1'000u);

  // A new claim on the same lane is eligible again.
  progress.unit_finished(0, 5'100);
  progress.unit_started(0, 43, 5'200);
  progress.tick(7'000);
  EXPECT_EQ(progress.stalls_detected(), 2u);
  EXPECT_EQ(events.back().unit, 43u);

  // begin_job resets stall state along with the lanes.
  progress.begin_job(1, 4, 0);
  EXPECT_EQ(progress.stalls_detected(), 0u);
}

TEST(ObsProgress, OptionsFromEnvParsesMilliseconds) {
  const SweepProgress::Options defaults = SweepProgress::options_from_env();
  EXPECT_EQ(defaults.interval_ns, SweepProgress::Options{}.interval_ns);

  ::setenv("PR_PROGRESS", "250", 1);
  ::setenv("PR_STALL_MS", "1500", 1);
  const SweepProgress::Options opts = SweepProgress::options_from_env();
  EXPECT_EQ(opts.interval_ns, 250u * 1'000'000u);
  EXPECT_EQ(opts.stall_after_ns, 1'500u * 1'000'000u);

  ::setenv("PR_PROGRESS", "0", 1);  // 0 keeps the default cadence
  EXPECT_EQ(SweepProgress::options_from_env().interval_ns,
            SweepProgress::Options{}.interval_ns);
  ::unsetenv("PR_PROGRESS");
  ::unsetenv("PR_STALL_MS");
}

// ---- Executor integration --------------------------------------------------

TEST(ObsExecutor, CountersAndTraceFollowTheSweep) {
  constexpr std::size_t kUnits = 64;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    Registry registry;
    TraceLog trace(256);
    sim::SweepExecutor executor(threads);
    executor.set_telemetry(sim::SweepTelemetry{&registry, &trace, nullptr});
    std::vector<std::uint64_t> out(kUnits, 0);
    executor.run(kUnits, [&](std::size_t unit, sim::WorkerContext&) {
      out[unit] = unit * 3 + 1;
    });

#if !defined(PR_OBS_DISABLED)
    const Counters total = registry.aggregate();
    EXPECT_EQ(total.get(Counter::kUnitsExecuted), kUnits) << threads;
    EXPECT_EQ(total.phase_calls(Phase::kUnit), kUnits) << threads;
    EXPECT_EQ(total.get(Counter::kUnitErrors), 0u);
#endif
    std::size_t unit_spans = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace.span(i).kind == SpanKind::kUnit) ++unit_spans;
    }
    EXPECT_EQ(unit_spans, kUnits) << threads;
    for (std::size_t u = 0; u < kUnits; ++u) EXPECT_EQ(out[u], u * 3 + 1);
  }
}

TEST(ObsExecutor, ProgressSeesEveryUnit) {
  SweepProgress::Options options;
  options.interval_ns = 3'600'000'000'000ull;  // monitor effectively silent
  SweepProgress progress(options);
  sim::SweepExecutor executor(2);
  executor.set_telemetry(sim::SweepTelemetry{nullptr, nullptr, &progress});
  executor.run(40, [](std::size_t, sim::WorkerContext&) {});
  const ProgressSnapshot s = progress.snapshot(obs::now_ns());
  EXPECT_EQ(s.units_done, 40u);
  EXPECT_EQ(s.units_total, 40u);
  EXPECT_EQ(s.in_flight, 0u);  // end_job clears the claims
}

// ---- The determinism contract ----------------------------------------------

struct StormFixture {
  graph::Graph g = topo::abilene();
  analysis::ProtocolSuite suite{g};
  traffic::TrafficMatrix demand =
      traffic::gravity_demand(g, 1e5, traffic::GravityMass::kDegree);
  traffic::CapacityPlan plan = traffic::CapacityPlan::uniform(g, 5e4);
  graph::Rng catalog_rng{4};
  net::SrlgCatalog catalog = net::random_srlgs(g, 6, 3, catalog_rng);
  net::IndependentOutages model = net::IndependentOutages::uniform(catalog, 0.2);
  std::vector<analysis::NamedFactory> protocols = {suite.spf(),
                                                   suite.reconvergence()};
  analysis::StormSweepConfig config = [] {
    analysis::StormSweepConfig c;
    c.scenarios = 240;
    c.seed = 77;
    c.top_k = 5;
    return c;
  }();

  [[nodiscard]] analysis::StormRunResult run(sim::SweepExecutor& executor) {
    return analysis::run_storm_experiment_resilient(g, demand, plan, model,
                                                    protocols, config, executor);
  }
};

TEST(ObsDeterminism, TelemetryOnAndOffAreByteIdenticalAcrossThreadCounts) {
  StormFixture f;
  std::string baseline_checkpoint;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    // Telemetry-free run: the reference bytes for this thread count.
    sim::SweepExecutor plain_executor(threads);
    const analysis::StormRunResult plain = f.run(plain_executor);
    ASSERT_TRUE(plain.complete());
    ASSERT_FALSE(plain.checkpoint.empty());

    // Fully-instrumented run: per-worker counters, trace ring, progress
    // lanes, and a driver-thread sink (the bench setup for checkpoint
    // attribution) all attached.
    Registry registry;
    TraceLog trace(1 << 14);
    SweepProgress progress;
    sim::SweepExecutor executor(threads);
    executor.set_telemetry(sim::SweepTelemetry{&registry, &trace, &progress});
    registry.ensure_workers(executor.thread_count() + 1);
    analysis::StormRunResult observed;
    {
      ScopedSink driver_sink(&registry.worker(executor.thread_count()));
      observed = f.run(executor);
    }
    ASSERT_TRUE(observed.complete());

    // Byte-identical checkpoint blobs ARE the bit-identity check: the blob
    // serializes every reducer output, so equal bytes mean equal results.
    EXPECT_EQ(observed.checkpoint, plain.checkpoint) << threads << " threads";
    EXPECT_EQ(observed.completed_scenarios, plain.completed_scenarios);
    if (baseline_checkpoint.empty()) {
      baseline_checkpoint = plain.checkpoint;
    } else {
      EXPECT_EQ(plain.checkpoint, baseline_checkpoint) << threads << " threads";
    }

#if !defined(PR_OBS_DISABLED)
    // Aggregate event totals of a deterministic sweep are deterministic:
    // every scenario executed exactly once, whatever the thread count.
    const Counters total = registry.aggregate();
    EXPECT_EQ(total.get(Counter::kUnitsExecuted), f.config.scenarios)
        << threads << " threads";
    EXPECT_EQ(total.get(Counter::kUnitErrors), 0u);
    EXPECT_GT(total.get(Counter::kRouteCachePristineBuilds) +
                  total.get(Counter::kRouteCacheRebuilds) +
                  total.get(Counter::kRouteCacheHits),
              0u);
    // The driver lane saw the checkpoint serialization.
    EXPECT_GE(total.get(Counter::kCheckpoints), 1u);
    EXPECT_GE(total.get(Counter::kCheckpointBytes), observed.checkpoint.size());
#endif
    EXPECT_GT(trace.size(), 0u);
  }
}

TEST(ObsDeterminism, ForwardDecisionsRepeatExactlyAcrossThreadCounts) {
  // PR and LFA loop until the TTL guard on the storms that partition
  // Abilene, so the engine takes part of their hops from the walk log
  // instead of deciding them, and flows towards a cut-off node follow the
  // walks of earlier flows of their batch.  Which hops are taken from the
  // log is a function of the batch alone: the decision and join counts
  // repeat exactly at every thread count, and counting them changes no
  // result bit.
  StormFixture f;
  f.protocols = {f.suite.pr(), f.suite.lfa()};
  std::string baseline_checkpoint;
#if !defined(PR_OBS_DISABLED)
  std::uint64_t baseline_hops = 0;
  std::uint64_t baseline_decisions = 0;
  std::uint64_t baseline_joins = 0;
#endif
  for (const std::size_t threads : {1u, 2u, 8u}) {
    sim::SweepExecutor plain_executor(threads);
    const analysis::StormRunResult plain = f.run(plain_executor);
    ASSERT_TRUE(plain.complete());

    Registry registry;
    sim::SweepExecutor executor(threads);
    executor.set_telemetry(sim::SweepTelemetry{&registry, nullptr, nullptr});
    const analysis::StormRunResult observed = f.run(executor);
    ASSERT_TRUE(observed.complete());
    EXPECT_EQ(observed.checkpoint, plain.checkpoint) << threads << " threads";
    if (baseline_checkpoint.empty()) baseline_checkpoint = plain.checkpoint;
    EXPECT_EQ(plain.checkpoint, baseline_checkpoint) << threads << " threads";

#if !defined(PR_OBS_DISABLED)
    const Counters total = registry.aggregate();
    const std::uint64_t hops = total.get(Counter::kForwardHops);
    const std::uint64_t decisions = total.get(Counter::kForwardDecisions);
    const std::uint64_t joins = total.get(Counter::kForwardJoins);
    EXPECT_GT(decisions, 0u);
    EXPECT_LT(decisions, hops) << "no hop came from the walk log";
    EXPECT_GT(joins, 0u) << "no walk followed another";
    if (baseline_hops == 0) {
      baseline_hops = hops;
      baseline_decisions = decisions;
      baseline_joins = joins;
    }
    EXPECT_EQ(hops, baseline_hops) << threads << " threads";
    EXPECT_EQ(decisions, baseline_decisions) << threads << " threads";
    EXPECT_EQ(joins, baseline_joins) << threads << " threads";
#endif
  }
}

TEST(ObsDeterminism, InjectedStallTripsTheDetectorWithoutChangingResults) {
  StormFixture f;
  f.config.scenarios = 60;
  sim::SweepExecutor reference_executor(2);
  const analysis::StormRunResult want = f.run(reference_executor);

  SweepProgress::Options options;
  options.interval_ns = 20'000'000;    // 20ms monitor cadence
  options.stall_after_ns = 60'000'000;  // 60ms in-flight -> stall
  SweepProgress progress(options);
  std::vector<StallEvent> events;
  progress.on_stall([&](const StallEvent& e) { events.push_back(e); });

  sim::SweepExecutor executor(2);
  executor.set_telemetry(sim::SweepTelemetry{nullptr, nullptr, &progress});
  sim::RunControl control;
  sim::FaultPlan faults;
  faults.stall_unit(40, std::chrono::milliseconds(250));
  control.set_fault_plan(&faults);
  analysis::StormRunOptions run_options;
  run_options.control = &control;
  const analysis::StormRunResult got = analysis::run_storm_experiment_resilient(
      f.g, f.demand, f.plan, f.model, f.protocols, f.config, executor,
      run_options);

  ASSERT_TRUE(got.complete());
  EXPECT_EQ(got.checkpoint, want.checkpoint);  // a stall never changes results
  ASSERT_GE(events.size(), 1u);
  EXPECT_GE(progress.stalls_detected(), 1u);
  bool saw_stalled_unit = false;
  for (const StallEvent& e : events) saw_stalled_unit |= (e.unit == 40u);
  EXPECT_TRUE(saw_stalled_unit);
}

}  // namespace
}  // namespace pr
