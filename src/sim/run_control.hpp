// Cooperative run control for long sweeps: cancel tokens, monotonic
// deadlines, unit budgets -- and the outcome report a bounded sweep returns
// instead of tearing itself down.
//
// The paper's premise is graceful degradation under failure; a sweep engine
// that abandons a million-scenario job because one worker threw, or that has
// no way to stop at a deadline with its partial results intact, does not hold
// itself to that contract.  RunControl threads the stop signals into
// SweepExecutor's claim loop, which checks them cooperatively at unit
// boundaries and guarantees DETERMINISTIC TRUNCATION: however a sweep stops
// (cancel, deadline, budget, contained unit error), the set of units whose
// results count -- and, for an ordered run, the reduce sequence -- is a
// canonical prefix [0, k) of the unit order.  Partial results are therefore
// bit-identical to a serial run of the same prefix, which is what makes
// checkpoint/resume (analysis/checkpoint.hpp) exact rather than approximate.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace pr::sim {

class FaultPlan;

/// Why a controlled sweep stopped.  kCompleted means every requested unit ran
/// (contained per-unit errors may still be listed under kContinue policy).
enum class StopReason : std::uint8_t {
  kCompleted,  ///< all units executed
  kCancelled,  ///< RunControl::cancel() observed at a unit boundary
  kDeadline,   ///< the monotonic deadline passed
  kBudget,     ///< the unit budget was exhausted
  kUnitError,  ///< a unit (or reduce) threw and the policy stops at errors
};

[[nodiscard]] const char* to_string(StopReason reason) noexcept;

/// The one strict decimal parse for counts that size allocations, loops or
/// file names: every character must be a digit, so signs, whitespace,
/// suffixes ("x4", "4x"), empty strings, overflow and values above
/// `max_value` all return false.  Returns false instead of throwing so
/// callers can word their own error.
[[nodiscard]] bool parse_count_arg(const char* raw, std::size_t max_value,
                                   std::size_t& out);

/// What to do when a work unit throws under a controlled run: truncate the
/// sweep at the failing unit (the canonical-prefix default) or skip just that
/// unit and keep going, accumulating the error.  The throwing run() and
/// run_ordered() forms always stop and rethrow.
enum class UnitErrorPolicy : std::uint8_t {
  kStop,      ///< contain the error, drain to the prefix [0, failing unit)
  kContinue,  ///< record the error, skip the unit's reduce, keep sweeping
};

/// One contained work-unit failure: which unit, which worker ran it, the
/// exception's what(), and the exception itself (what
/// sim::throw_if_failed() nests).  The worker index is diagnostic only --
/// results never depend on it; the unit index is part of the truncation
/// contract.
struct UnitError {
  std::size_t unit = 0;
  std::size_t worker = 0;
  std::string what;
  std::exception_ptr cause;
};

/// How a controlled sweep ended.  `completed_units` is the canonical prefix
/// length k: units [0, k) all executed -- and, for an ordered run, were reduced
/// in order 0, 1, ..., k-1 -- except units listed in `errors` (non-empty
/// inside the prefix only under UnitErrorPolicy::kContinue).  Results for
/// units >= k must be ignored even if their slots were written.
struct SweepOutcome {
  std::size_t completed_units = 0;
  StopReason stop_reason = StopReason::kCompleted;
  /// Contained failures, ascending by unit; the lowest kMaxRecordedErrors
  /// units when more failed (error_count keeps the true total).
  std::vector<UnitError> errors;
  std::size_t error_count = 0;
  /// Periodic checkpoints persisted during this run by the thread that called
  /// run() (excludes any final checkpoint the driver takes after it returns).
  std::size_t auto_checkpoints = 0;
  /// Auto-checkpoint attempts that threw (serialize or persist).  A failed
  /// checkpoint never perturbs results -- it only loses durability; the sweep
  /// keeps going and retries one cadence interval later.
  std::size_t checkpoint_failures = 0;

  static constexpr std::size_t kMaxRecordedErrors = 64;

  [[nodiscard]] bool complete() const noexcept {
    return stop_reason == StopReason::kCompleted;
  }
  /// The lowest-unit contained failure, or nullptr when none was recorded.
  [[nodiscard]] const UnitError* first_error() const noexcept {
    return errors.empty() ? nullptr : errors.data();
  }
};

/// How often a sweep should auto-checkpoint: every `units` completed units,
/// every `period` of wall time, or both (whichever trips first; the trigger
/// re-arms after each persisted generation).  Zero/unset fields are inactive;
/// a cadence with any() == false disables periodic checkpointing entirely.
///
/// Cadence affects DURABILITY ONLY, never results: every persisted generation
/// is a canonical prefix [0, k) regardless of when the timer fires, so two
/// runs with different cadences produce bit-identical final state.
struct CheckpointCadence {
  /// Persist after this many newly completed units (0 = no unit trigger).
  std::size_t units = 0;
  /// Persist after this much wall time (zero = no time trigger).
  std::chrono::milliseconds period{0};

  [[nodiscard]] bool any() const noexcept {
    return units != 0 || period.count() != 0;
  }

  /// Parses a cadence spec: comma-separated terms, each either
  ///   "N" or "Nu"  -- every N units
  ///   "Nms" / "Ns" -- every N milliseconds / seconds
  /// At most one unit term and one time term; empty/garbage/duplicate terms
  /// throw std::invalid_argument naming `var` and the full raw value.
  [[nodiscard]] static CheckpointCadence parse(std::string_view spec,
                                               const char* var = "cadence");

  /// parse() of $PR_CKPT_EVERY; an unset/empty variable yields an inactive
  /// cadence (any() == false).
  [[nodiscard]] static CheckpointCadence from_env();
};

/// Shared stop-signal bundle for one (or several sequential) controlled
/// sweeps.  cancel() and the deadline are safe to trip from any thread while
/// a sweep runs; the budget, error policy and fault plan must be configured
/// BEFORE the run starts and left alone until it returns.  The executor only
/// reads -- a RunControl can be reused across runs (clear_deadline()/a fresh
/// budget between them; cancellation is sticky until reset_cancel()).
class RunControl {
 public:
  using Clock = std::chrono::steady_clock;

  RunControl() = default;
  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// Sticky cooperative cancellation: workers stop claiming new units at the
  /// next unit boundary; in-flight units finish and count toward the prefix.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  void reset_cancel() noexcept { cancelled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Monotonic deadline; workers stop claiming once Clock::now() reaches it.
  void set_deadline(Clock::time_point deadline) noexcept {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  /// Deadline relative to now.
  void set_timeout(Clock::duration timeout) noexcept {
    set_deadline(Clock::now() + timeout);
  }
  void clear_deadline() noexcept {
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }
  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed) != kNoDeadline;
  }
  [[nodiscard]] bool deadline_expired() const noexcept {
    const auto ns = deadline_ns_.load(std::memory_order_relaxed);
    return ns != kNoDeadline && Clock::now().time_since_epoch().count() >= ns;
  }

  /// Maximum units the NEXT run may claim (default: unlimited).  Because the
  /// claim cursor is a monotone counter, a budget of b truncates to exactly
  /// the prefix [0, min(b, unit_count)) -- deterministically, unlike a
  /// deadline -- which is what the checkpoint tests pin down.
  void set_unit_budget(std::size_t units) noexcept { budget_ = units; }
  void clear_unit_budget() noexcept { budget_ = kNoBudget; }
  [[nodiscard]] std::size_t unit_budget() const noexcept { return budget_; }

  void set_error_policy(UnitErrorPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] UnitErrorPolicy error_policy() const noexcept { return policy_; }

  /// Deterministic fault injection (sim/fault_plan.hpp); the plan must
  /// outlive every run it is attached to.  nullptr = no faults.
  void set_fault_plan(const FaultPlan* plan) noexcept { faults_ = plan; }
  [[nodiscard]] const FaultPlan* fault_plan() const noexcept { return faults_; }

  static constexpr std::size_t kNoBudget = std::numeric_limits<std::size_t>::max();

 private:
  static constexpr Clock::rep kNoDeadline =
      std::numeric_limits<Clock::rep>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<Clock::rep> deadline_ns_{kNoDeadline};
  std::size_t budget_ = kNoBudget;
  UnitErrorPolicy policy_ = UnitErrorPolicy::kStop;
  const FaultPlan* faults_ = nullptr;
};

}  // namespace pr::sim
