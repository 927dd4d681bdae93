// Low-overhead, determinism-preserving telemetry for the sweep pipeline.
//
// The sweep stack is allocation-free, multi-threaded and incremental -- and
// therefore opaque: a cold routing cache, a repair path falling back to full
// rebuilds, or a starving worker is invisible in the end-to-end totals.  This
// layer makes the hot paths observable without perturbing them:
//
//   * Counters -- a fixed-size block of u64 cells (event counts plus per-phase
//     nanosecond/call accumulators).  One block lives per sweep worker
//     (obs::Registry) and instrumented code reaches it through a THREAD-LOCAL
//     sink pointer: obs::count(...) is a TLS load, a null test and an add.
//     With no sink installed (the default everywhere) every instrumentation
//     point costs one predictable branch; defining PR_OBS_DISABLED compiles
//     the calls out entirely.
//   * PhaseTimer -- RAII wall-time attribution into the same cells.  A timer
//     constructed while no sink is installed never reads the clock.
//   * Registry -- per-worker Counters blocks, merged into one aggregate view
//     in canonical worker order (0, 1, 2, ...) at sweep end.
//
// Determinism contract: telemetry only OBSERVES.  No counter or timer value
// ever feeds back into routing, scheduling or reduction, so enabling or
// disabling it cannot change a single result bit (obs_test pins sweep results
// and checkpoint blobs byte-identical either way, at 1/2/8 threads).
// Per-worker cell values may legitimately differ run to run -- which worker
// executed which unit is scheduler noise -- but aggregate event totals for a
// deterministic sweep are themselves deterministic.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pr::obs {

/// Event counters, one cell each.  Keep groups together: the JSON report and
/// the derived rates (cache hit rate, repair fraction) are indexed by these.
enum class Counter : std::uint16_t {
  // graph::SpfWorkspace -- how scenarios pay for their routing tables.
  kSpfFullBuilds,    ///< from-scratch Dijkstra runs (full_build)
  kSpfRepairs,       ///< per-destination delta repairs (repair)
  kSpfTreeRepairs,   ///< batched-drive tree repairs (repair_tree)
  kSpfOrphanNodes,   ///< nodes regrown across all repair_tree calls
  // route::ScenarioRoutingCache -- the per-worker routing-table cache.
  kRouteCachePristineBuilds,
  kRouteCacheRebuilds,
  kRouteCacheHits,
  // route::FcpRouting -- the memoised-SPF LRU.
  kFcpMemoHits,
  kFcpMemoFills,  ///< misses, i.e. SPF computations triggered
  kFcpMemoEvictions,
  // traffic::FlowIncidenceIndex / GroupIncidence -- affected-flow probes.
  kIncidenceProbes,         ///< affected_flows() calls
  kIncidenceAffectedFlows,  ///< flows the probes collected, summed
  kIncidenceUniverseFlows,  ///< flow_count() per probe, summed (the denominator)
  // sim::route_batch / ForwardingEngine -- dataplane totals.
  kFlowsRouted,
  kFlowsDelivered,
  kFlowsDropped,
  kForwardHops,
  kForwardDecisions,  ///< hops a protocol decided (the rest came from the walk log)
  kForwardJoins,      ///< walks that followed hops another walk of the batch logged
  kCycleFollowFlows,  ///< flows that ended in PR cycle-follow mode (pr_bit set)
  kCycleFollowHops,   ///< hops of those flows
  // sim::SweepExecutor -- scheduling.
  kUnitsExecuted,
  kUnitErrors,
  kReduceCalls,
  // analysis::CheckpointWriter -- resume blobs.
  kCheckpoints,
  kCheckpointBytes,
  kCount
};

/// Wall-time phases accumulated by PhaseTimer (nanoseconds + call counts).
enum class Phase : std::uint8_t {
  kUnit,        ///< sweep unit execution (measured by the executor)
  kReduce,      ///< canonical-order reduction (under the executor lock)
  kSpfRebuild,  ///< scenario routing-table rebuild (ScenarioRoutingCache)
  kCheckpoint,  ///< checkpoint serialization (writer construction to seal)
  kCount
};

[[nodiscard]] const char* to_string(Counter c) noexcept;
[[nodiscard]] const char* to_string(Phase p) noexcept;

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

/// Monotonic nanoseconds (steady_clock).  Telemetry-only: never used to make
/// routing or scheduling decisions.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One worker's (or one driver thread's) counter block.  Plain u64 cells,
/// no atomics: a block is only ever written by the thread it is installed on.
class Counters {
 public:
  void add(Counter c, std::uint64_t n = 1) noexcept {
    cells_[static_cast<std::size_t>(c)] += n;
  }
  void add_phase(Phase p, std::uint64_t ns) noexcept {
    phase_ns_[static_cast<std::size_t>(p)] += ns;
    ++phase_calls_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] std::uint64_t get(Counter c) const noexcept {
    return cells_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t phase_nanos(Phase p) const noexcept {
    return phase_ns_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t phase_calls(Phase p) const noexcept {
    return phase_calls_[static_cast<std::size_t>(p)];
  }

  /// Cell-wise accumulation; merging a set of blocks in any grouping yields
  /// the same totals (integer addition), but canonical callers (Registry)
  /// always merge in worker order so the operation is reproducible by
  /// construction, not by argument.
  void merge(const Counters& other) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) cells_[i] += other.cells_[i];
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      phase_ns_[i] += other.phase_ns_[i];
      phase_calls_[i] += other.phase_calls_[i];
    }
  }

  void reset() noexcept {
    cells_.fill(0);
    phase_ns_.fill(0);
    phase_calls_.fill(0);
  }

  [[nodiscard]] bool operator==(const Counters&) const noexcept = default;

 private:
  std::array<std::uint64_t, kCounterCount> cells_{};
  std::array<std::uint64_t, kPhaseCount> phase_ns_{};
  std::array<std::uint64_t, kPhaseCount> phase_calls_{};
};

#if !defined(PR_OBS_DISABLED)
/// The calling thread's counter sink; null (the default) disables every
/// instrumentation point on this thread at the cost of one branch each.
extern thread_local Counters* g_thread_sink;

[[nodiscard]] inline Counters* sink() noexcept { return g_thread_sink; }
[[nodiscard]] inline bool enabled() noexcept { return g_thread_sink != nullptr; }

/// The one call every instrumentation point makes.
inline void count(Counter c, std::uint64_t n = 1) noexcept {
  if (Counters* s = g_thread_sink; s != nullptr) s->add(c, n);
}
#else
[[nodiscard]] inline Counters* sink() noexcept { return nullptr; }
[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void count(Counter, std::uint64_t = 1) noexcept {}
#endif

/// Installs `s` as the calling thread's sink for the scope; restores the
/// previous sink (sinks nest) on destruction.  Passing nullptr disables
/// telemetry for the scope.
class ScopedSink {
 public:
  explicit ScopedSink(Counters* s) noexcept
#if !defined(PR_OBS_DISABLED)
      : previous_(g_thread_sink) {
    g_thread_sink = s;
  }
  ~ScopedSink() { g_thread_sink = previous_; }
#else
  {
    (void)s;
  }
  ~ScopedSink() = default;
#endif

  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
#if !defined(PR_OBS_DISABLED)
  Counters* previous_;
#endif
};

/// RAII wall-time attribution: adds the scope's duration (and one call) to
/// the sink installed at CONSTRUCTION.  With no sink installed the clock is
/// never read -- a disabled timer is two branches.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase p) noexcept : sink_(sink()), phase_(p) {
    if (sink_ != nullptr) start_ns_ = now_ns();
  }
  ~PhaseTimer() {
    if (sink_ != nullptr) sink_->add_phase(phase_, now_ns() - start_ns_);
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Counters* sink_;
  Phase phase_;
  std::uint64_t start_ns_ = 0;
};

/// Per-worker counter blocks plus the canonical merge.  The registry itself
/// does no synchronisation: each worker block is written only by its worker
/// thread, and aggregate()/report readers run after the sweep has joined
/// (SweepExecutor::run returns only when every worker is idle).
class Registry {
 public:
  explicit Registry(std::size_t workers = 0) : workers_(workers) {}

  /// Grows to at least `workers` blocks (never shrinks; existing cells keep
  /// their values).  SweepExecutor::set_telemetry calls this with its pool
  /// size, so a registry constructed with 0 still fits any executor.
  void ensure_workers(std::size_t workers) {
    if (workers > workers_.size()) workers_.resize(workers);
  }

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }
  [[nodiscard]] Counters& worker(std::size_t w) { return workers_.at(w); }
  [[nodiscard]] const Counters& worker(std::size_t w) const { return workers_.at(w); }

  /// Canonical per-worker merge: workers folded in index order 0, 1, 2, ...
  [[nodiscard]] Counters aggregate() const {
    Counters total;
    for (const Counters& w : workers_) total.merge(w);
    return total;
  }

  void reset() noexcept {
    for (Counters& w : workers_) w.reset();
  }

 private:
  std::vector<Counters> workers_;
};

/// The "telemetry" JSON object every instrumented bench emits: derived rates
/// first (cache hit rate, SPF repair fraction, FCP memo hit rate, affected
/// flow fraction, decision fraction = forward decisions / forward hops), then
/// raw counter groups, phase wall times, and a per-worker utilization table
/// (busy phase-kUnit time over `elapsed_ms` of wall clock; elapsed_ms <= 0
/// suppresses the utilization columns).  `indent`
/// spaces prefix every line after the first so the object nests under any
/// bench's hand-rolled emitter.
[[nodiscard]] std::string telemetry_json(const Registry& registry, double elapsed_ms,
                                         int indent = 2);

}  // namespace pr::obs
