// Parallel sharded sweep execution on top of the batched forwarding engine.
//
// The paper's guarantee -- zero loss for any failure combination the cycle
// table covers -- is only demonstrable by enumerating large
// (scenario x ordered-pair x protocol) spaces.  sim::route_batch makes one
// sweep allocation-free; this layer shards a sweep's work units (a failure
// scenario plus its affected flow list) across a persistent worker pool so
// enumeration scales with the hardware.
//
// Determinism contract: results are bit-identical for every thread count,
// including 1, and identical to the serial route_batch path.  Three rules
// make that hold:
//   1. a work unit is the atom of scheduling -- all flows of a scenario are
//      routed by one worker, in the caller's flow order, against protocol
//      instances built fresh for that unit (exactly what the serial sweeps
//      in analysis/ do per scenario);
//   2. randomness comes from per-unit streams split off the caller's seed
//      (split_seed), never from a per-thread or shared generator, so a unit
//      draws the same numbers no matter which worker runs it;
//   3. a unit writes its results into a ring slot and the ordered reduce
//      folds that slot in canonical unit order -- never in completion order.
//      Integer counters are order-insensitive anyway; floating-point
//      accumulators (costs, stretch sums) are not, which is why the fold
//      order is part of the contract.  Every sweep driver in analysis/ works
//      this way.
//
// Robustness contract: the one controlled entry point, run(n, fn, control,
// options), returns a SweepOutcome instead of throwing, stops cooperatively
// at unit boundaries on cancel/deadline/budget, contains per-unit
// exceptions, and guarantees the surviving results form the canonical prefix
// [0, k) -- see sim/run_control.hpp for the truncation contract.  The two
// throwing forms are thin wrappers over it: they run under a default
// RunControl and hand the outcome to throw_if_failed().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/rng.hpp"
#include "route/scenario_cache.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/run_control.hpp"
#include "traffic/incidence.hpp"
#include "traffic/load_map.hpp"

namespace pr::obs {
class Registry;
class TraceLog;
class SweepProgress;
}  // namespace pr::obs

namespace pr::sim {

/// Optional observability attachments for an executor (see src/obs/).  All
/// three are borrowed pointers the caller keeps alive across runs; any subset
/// may be null.  Telemetry is purely observational -- attaching it must not
/// (and, by obs_test, does not) change a single result bit.
///   * registry -- per-worker obs::Counters cells; the executor installs
///     worker w's cell as the thread-local sink while w runs units, so every
///     instrumented subsystem (SPF repair, routing caches, incidence probes,
///     forwarding) attributes to the right worker without plumbing.
///   * trace    -- obs::TraceLog receiving unit/reduce/fault/stall/truncate
///     spans for chrome://tracing export.
///   * progress -- obs::SweepProgress fed per-unit start/finish events; when
///     attached, the thread that called run() calls progress->tick() on its
///     configured interval while it waits for the pool (snapshot callbacks,
///     stall detection).
struct SweepTelemetry {
  obs::Registry* registry = nullptr;
  obs::TraceLog* trace = nullptr;
  obs::SweepProgress* progress = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return registry != nullptr || trace != nullptr || progress != nullptr;
  }
};

/// Hard ceiling on pool size -- far above any real machine, so it only ever
/// trips on caller bugs ("-1" parsed through strtoull, uninitialised config)
/// before they reach the OS as thousands of thread spawns.
inline constexpr std::size_t kMaxSweepThreads = 4096;

/// Periodic durability hook for controlled ordered sweeps.  When attached,
/// the thread that called run() persists mid-run checkpoints on `cadence`
/// while it waits for the pool, without ever pausing the sweep:
///
///   * serialize(k) runs UNDER the executor's internal lock.  reduce() is
///     serialised by that same lock, so the watermark k is frozen and the
///     caller's streaming reducer state is EXACTLY the canonical prefix
///     [0, k) -- the blob it returns is bit-identical to the checkpoint a
///     deadline-stopped run at k would have written.  Keep it to in-memory
///     encoding (KBs of reducer state); every worker that reaches its reduce
///     step blocks while it runs.
///   * persist(k, blob) runs OFF the lock, so fsync/rename latency never
///     stalls a worker.  By the time it runs the sweep has typically moved
///     past k; that is fine -- the blob was sealed under the lock.
///
/// A unit cadence falls due when the reduce reaches the due unit, a time
/// cadence on a timed wait; neither hook counts into a telemetry sink.
/// Either hook throwing counts a checkpoint_failure on the outcome and
/// re-arms the cadence; results never change.  The driver still owns the
/// FINAL checkpoint after the run returns.  A process that dies without
/// warning (SIGKILL, std::abort) loses the units reduced since the last
/// PERSISTED generation: one cadence interval plus whatever completed while
/// that generation's persist was in flight.
struct AutoCheckpoint {
  std::function<std::string(std::size_t completed_units)> serialize;
  std::function<void(std::size_t completed_units, std::string&& blob)> persist;
  CheckpointCadence cadence;

  [[nodiscard]] bool active() const noexcept {
    return serialize != nullptr && persist != nullptr && cadence.any();
  }
};

/// The optional parts of a controlled SweepExecutor::run -- everything beyond
/// the unit function and the RunControl.
struct RunOptions {
  /// Roots the per-unit RNG streams: unit u draws from split_seed(seed, u).
  std::uint64_t seed = 0;
  /// Canonical-order reduce (SweepExecutor::ReduceFn); empty runs unordered.
  std::function<void(std::size_t unit)> reduce{};
  /// Periodic checkpoints of an ordered run; must outlive the call.
  const AutoCheckpoint* checkpoint = nullptr;
};

/// Thrown by throw_if_failed() -- and so by the throwing run()/run_ordered()
/// forms and every throwing sweep driver in analysis/ -- when a unit (or a
/// reduce) threw: carries the failing unit index and the worker that ran it,
/// with the original exception attached via std::throw_with_nested.  When
/// several in-flight units fail before the pool drains, the LOWEST unit is
/// the one rethrown, so the surfaced error is deterministic across thread
/// counts whenever the failure itself is.
class SweepUnitError : public std::runtime_error {
 public:
  SweepUnitError(std::size_t unit, std::size_t worker, const std::string& what)
      : std::runtime_error("sweep unit " + std::to_string(unit) +
                           " failed on worker " + std::to_string(worker) +
                           ": " + what),
        unit_(unit),
        worker_(worker) {}

  [[nodiscard]] std::size_t unit() const noexcept { return unit_; }
  [[nodiscard]] std::size_t worker() const noexcept { return worker_; }

 private:
  std::size_t unit_;
  std::size_t worker_;
};

/// The one rethrow path of the sweep stack: throws SweepUnitError for
/// outcome.first_error() (the lowest failing unit), with the unit's original
/// exception nested, and returns when no unit failed.
void throw_if_failed(const SweepOutcome& outcome);

/// Deterministic stream splitting (splitmix64 over seed ^ f(stream)): the
/// RNG stream for work unit `stream` of a sweep seeded with `seed`.
/// Adjacent units get statistically independent streams; the mapping depends
/// only on (seed, stream), never on thread placement.
[[nodiscard]] std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream);

/// Per-worker scratch owned by the pool: one context lives as long as its
/// worker thread, so the reusable route_batch buffer set keeps the hot loop
/// allocation-free across every unit the worker executes, across run() calls.
class WorkerContext {
 public:
  /// Reusable sweep buffers (cleared by the unit function, capacity kept).
  std::vector<FlowSpec> flows;
  std::vector<double> base_costs;
  std::vector<char> flags;
  BatchResult batch;

  /// Reusable per-dart load accumulator for demand-weighted sweeps: a cell
  /// resets it per scenario, so once warm a storm sweep adds no per-scenario
  /// heap traffic.
  traffic::LoadMap load;

  /// Per-worker scratch for incremental traffic sweeps: affected-flow marks
  /// and the compacted re-route list a scenario cell probes out of the shared
  /// FlowIncidenceIndex.  Reused across units like the buffers above.
  traffic::IncidenceScratch incidence;

  /// Per-worker scenario routing cache: protocols that reconverge borrow
  /// delta-repaired tables from here instead of building a fresh RoutingDb
  /// per scenario.  Served tables are bit-identical to from-scratch builds,
  /// so results stay independent of worker placement.
  route::ScenarioRoutingCache routes;

  /// Per-unit RNG: reseeded to split_seed(run seed, unit) before every unit
  /// function invocation, so draws depend on the unit, not the worker.
  [[nodiscard]] graph::Rng& rng() noexcept { return rng_; }

  /// Index of the owning worker in [0, thread_count()); for diagnostics
  /// only -- results must never depend on it.
  [[nodiscard]] std::size_t worker() const noexcept { return worker_; }

 private:
  friend class SweepExecutor;
  graph::Rng rng_{0};
  std::size_t worker_ = 0;
};

/// Persistent worker pool that shards [0, unit_count) across threads.
/// Construction spawns the workers once; run() reuses them, so repeated
/// sweeps (a bench's repetitions, a multi-k enumeration) pay no per-call
/// thread churn.  run() is synchronous and admits ONE caller at a time: it
/// must not be called reentrantly from inside a unit function, nor
/// concurrently from two threads sharing the executor (enforced -- the
/// second caller gets std::logic_error instead of silently corrupted
/// sharding).  Give each driving thread its own executor instead.
class SweepExecutor {
 public:
  /// Function applied to each work unit.  Runs on a worker thread; touching
  /// anything other than per-unit slots and the passed context requires the
  /// caller's own synchronisation.
  using UnitFn = std::function<void(std::size_t unit, WorkerContext& ctx)>;

  /// Streaming reduction hook of an ordered run: called exactly once per
  /// unit, in canonical unit order (0, 1, 2, ...), never concurrently with
  /// itself or with another reduce call.  It runs on whichever worker thread
  /// happened to close the gap, under the executor's internal lock: keep it
  /// light -- fold the unit's slot into reducer state -- and leave the heavy
  /// work to the unit function.
  using ReduceFn = std::function<void(std::size_t unit)>;

  /// `threads` == 0 selects std::thread::hardware_concurrency() (minimum 1).
  /// Throws std::invalid_argument when threads > kMaxSweepThreads.
  explicit SweepExecutor(std::size_t threads = 0);
  ~SweepExecutor();

  SweepExecutor(const SweepExecutor&) = delete;
  SweepExecutor& operator=(const SweepExecutor&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept;

  /// Attaches (or, with a default-constructed SweepTelemetry, detaches)
  /// observability sinks for subsequent runs; sizes `telemetry.registry` to
  /// the pool.  Must not be called while a job is running (throws
  /// std::logic_error).  See SweepTelemetry for the determinism guarantee.
  void set_telemetry(const SweepTelemetry& telemetry);

  /// The controlled entry point every sweep goes through: applies `fn` to
  /// every unit in [0, unit_count), dynamically sharded across the pool.
  /// Stop signals (cancel, deadline, unit budget -- checked cooperatively
  /// before each claim), fault injection and the error policy come from
  /// `control`, which may be shared with a canceller thread.  Instead of
  /// throwing, the call returns a SweepOutcome whose completed_units is the
  /// canonical prefix length k: units [0, k) all executed (contained failures
  /// listed in errors under kContinue); results of units >= k must be dropped.
  ///
  /// With options.reduce set, reduce(u) fires after unit u's function
  /// returned, once every unit below u was reduced: the sequence is exactly
  /// 0, 1, ..., k-1 at every thread count however the sweep stops, so
  /// order-sensitive streaming state (P^2 markers, top-K heaps,
  /// floating-point sums) is bit-identical to a serial sweep.  A failed unit's
  /// reduce is skipped under kContinue (it still counts toward the prefix);
  /// reduce() itself throwing always truncates.  Unit u does not start before
  /// reduce(u - window) returned, window = default_ordered_window(), so a
  /// ring of `window` slots (index unit % window) carries results from fn to
  /// reduce in flat memory.  An active options.checkpoint seals and persists
  /// the reduced prefix on its cadence (see AutoCheckpoint) without changing
  /// a result bit.  The calling thread runs progress ticks and checkpoint
  /// seals while it waits for the pool; run() starts no thread.
  SweepOutcome run(std::size_t unit_count, const UnitFn& fn, const RunControl& control,
                   const RunOptions& options = {});

  /// Throwing form: the controlled run() under a default RunControl (no stop
  /// signals, kStop policy), its outcome handed to throw_if_failed().
  void run(std::size_t unit_count, const UnitFn& fn, std::uint64_t seed = 0);

  /// Throwing ordered form: the controlled run() with `reduce` under a
  /// default RunControl, rethrown like the form above.
  void run_ordered(std::size_t unit_count, const UnitFn& fn, const ReduceFn& reduce,
                   std::uint64_t seed = 0);

  /// The reduce window of every ordered run: wide enough to keep every worker
  /// busy across reduction stalls (4 * thread_count(), floor 16).  Callers
  /// size their slot rings with it.
  [[nodiscard]] std::size_t default_ordered_window() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Thread count requested via the PR_SWEEP_THREADS environment variable, or
/// `fallback` when unset, unparsable or above kMaxSweepThreads.  0 means
/// "one per hardware thread"; the benches and examples all honour this so CI
/// can pin their parallelism.
[[nodiscard]] std::size_t threads_from_env(std::size_t fallback = 0);

/// Shared CLI handling for every sweep binary: the thread count from
/// argv[index] when present, else threads_from_env(fallback).  An explicit
/// argument must be a plain decimal <= kMaxSweepThreads (0 = hardware);
/// anything else throws std::invalid_argument rather than silently spawning
/// a surprise pool size.
[[nodiscard]] std::size_t threads_from_arg(int argc, char** argv, int index,
                                           std::size_t fallback = 0);

}  // namespace pr::sim
