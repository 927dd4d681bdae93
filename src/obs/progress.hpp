// Lock-light periodic progress for long sweeps: units completed, throughput,
// ETA, per-worker utilization, and a stall detector.
//
// Workers publish into fixed per-worker lanes of relaxed atomics (one store
// per unit start, a few per unit end); while SweepExecutor::run waits for
// its pool, the calling thread calls tick() on the interval to snapshot the
// lanes, fire callbacks (the benches' stderr progress line), and flag
// stalls.  Nothing here feeds back into scheduling: a flagged stall is
// reported, never acted on, so the determinism contract is untouched.  All
// time flows through explicit `now_ns` parameters so tests drive the clock
// synthetically instead of sleeping.
//
// Stall detection complements sim::RunControl deadlines: a deadline bounds
// the whole sweep, the stall watermark names the specific worker (and unit)
// that has been in flight longer than `stall_after` -- exactly the signal a
// PR_FAULT_STALL_UNIT plan or a wedged syscall produces.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pr::obs {

struct ProgressSnapshot {
  std::uint64_t now_ns = 0;
  std::uint64_t job_start_ns = 0;
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;  ///< 0 when the total is unknown
  double units_per_sec = 0.0;     ///< cumulative, since job start
  double eta_sec = 0.0;           ///< 0 when total unknown or rate is 0
  std::size_t in_flight = 0;      ///< workers currently executing a unit
  /// Per-worker busy fraction since job start (unit execution time over
  /// elapsed wall time), indexed by worker lane.
  std::vector<double> utilization;
};

struct StallEvent {
  std::size_t worker = 0;
  std::uint64_t unit = 0;
  std::uint64_t in_flight_ns = 0;  ///< how long the unit has been running
};

/// Shared progress state for one sweep job at a time (begin_job resets).
/// Thread-safety: worker lanes are written only by their worker; tick(),
/// snapshot() and callback registration belong to the driving thread.
/// Register callbacks before the job starts.
class SweepProgress {
 public:
  struct Options {
    std::uint64_t interval_ns = 1'000'000'000;     ///< tick() cadence while a job runs
    std::uint64_t stall_after_ns = 5'000'000'000;  ///< in-flight time before a stall fires
  };

  SweepProgress();
  explicit SweepProgress(Options options);

  /// Reads PR_PROGRESS (interval, ms) and PR_STALL_MS (stall threshold, ms)
  /// on top of the defaults above.  PR_PROGRESS=0 keeps the default cadence.
  [[nodiscard]] static Options options_from_env();

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  void on_snapshot(std::function<void(const ProgressSnapshot&)> cb);
  void on_stall(std::function<void(const StallEvent&)> cb);

  // -- executor side ------------------------------------------------------
  void begin_job(std::size_t workers, std::uint64_t units_total, std::uint64_t now_ns);
  void unit_started(std::size_t worker, std::uint64_t unit, std::uint64_t now_ns) noexcept;
  void unit_finished(std::size_t worker, std::uint64_t now_ns) noexcept;
  void end_job(std::uint64_t now_ns) noexcept;

  // -- driver side --------------------------------------------------------
  /// Snapshots lanes, fires the snapshot callback, and checks each in-flight
  /// worker against stall_after_ns (each claim is reported at most once).
  void tick(std::uint64_t now_ns);
  [[nodiscard]] ProgressSnapshot snapshot(std::uint64_t now_ns) const;
  [[nodiscard]] std::uint64_t stalls_detected() const noexcept {
    return stalls_detected_;
  }

  /// One-line human rendering of a snapshot, e.g.
  /// `progress: 6400/20000 units (32.0%) 2134.5 units/s eta 6.4s busy 3/4 util 0.93`.
  [[nodiscard]] static std::string format_line(const ProgressSnapshot& s);

 private:
  struct Lane {
    std::atomic<std::uint64_t> units_done{0};
    std::atomic<std::uint64_t> busy_ns{0};
    /// Claim time of the unit in flight, 0 when idle.
    std::atomic<std::uint64_t> claim_ns{0};
    std::atomic<std::uint64_t> claim_unit{0};
    /// Claim timestamp of the last stall already reported, so each wedged
    /// unit fires exactly one StallEvent however many ticks observe it.
    std::uint64_t reported_stall_claim = 0;
  };

  Options options_;
  std::vector<Lane> lanes_;
  std::uint64_t job_start_ns_ = 0;
  std::uint64_t units_total_ = 0;
  std::uint64_t stalls_detected_ = 0;
  std::function<void(const ProgressSnapshot&)> snapshot_cb_;
  std::function<void(const StallEvent&)> stall_cb_;
};

}  // namespace pr::obs
