#include "sim/parallel_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_log.hpp"
#include "sim/fault_plan.hpp"

namespace pr::sim {

bool parse_count_arg(const char* raw, std::size_t max_value, std::size_t& out) {
  if (raw == nullptr || *raw == '\0' || *raw == '-' || *raw == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) return false;
  if (parsed > max_value) return false;
  out = static_cast<std::size_t>(parsed);
  return true;
}

std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream) {
  // The library-wide splitmix64 discipline lives in graph/rng.hpp; this alias
  // is kept so sweep callers keep one obvious name for unit streams.
  return graph::split_seed(seed, stream);
}

std::size_t threads_from_env(std::size_t fallback) {
  std::size_t parsed = 0;
  if (!parse_count_arg(std::getenv("PR_SWEEP_THREADS"), kMaxSweepThreads, parsed)) {
    return fallback;
  }
  return parsed;
}

std::size_t threads_from_arg(int argc, char** argv, int index, std::size_t fallback) {
  if (index <= 0 || index >= argc) return threads_from_env(fallback);
  std::size_t parsed = 0;
  if (!parse_count_arg(argv[index], kMaxSweepThreads, parsed)) {
    throw std::invalid_argument(
        "thread count must be a decimal in [0, " +
        std::to_string(kMaxSweepThreads) + "], got \"" + argv[index] + "\"");
  }
  return parsed;
}

struct SweepExecutor::Impl {
  static constexpr std::size_t kNoTruncation = std::numeric_limits<std::size_t>::max();

  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable job_done;
  std::vector<std::thread> workers;

  // Current job, guarded by `mutex` except for the atomics.
  const UnitFn* fn = nullptr;
  std::size_t claim_limit = 0;  // min(unit count, control budget)
  std::uint64_t seed = 0;
  std::uint64_t generation = 0;  // bumped per run(); wakes the pool
  std::size_t idle_workers = 0;  // workers finished with the current job
  bool job_active = false;       // run() admits one caller at a time
  bool stopping = false;

  // Observability attachments (set_telemetry, outside any job).  Workers
  // snapshot these under `mutex` when they pick up a generation, so swapping
  // telemetry between runs is safe.
  SweepTelemetry telemetry;

  // Run-control plumbing for the current job; `control` is read-only.
  const RunControl* control = nullptr;
  std::atomic<bool> halted{false};  // stop claiming; in-flight units finish
  bool saw_cancel = false;          // guarded by `mutex`
  bool saw_deadline = false;        // guarded by `mutex`

  // Error containment, guarded by `mutex`.  `truncate_at` is the lowest unit
  // whose failure truncates the prefix (kStop policy, or a reduce() failure
  // under any policy); kNoTruncation when none has.
  std::vector<UnitError> errors;
  std::size_t error_count = 0;
  std::size_t truncate_at = kNoTruncation;

  // Auto-checkpoint counters for the current job (ordered runs only): the
  // hooks run on the monitor thread, which writes these under `mutex`; run()
  // reads them after the monitor joins.
  std::size_t auto_checkpoints = 0;
  std::size_t checkpoint_failures = 0;

  // Ordered-reduction state (ordered runs only), guarded by `mutex`.
  const ReduceFn* reduce = nullptr;
  std::size_t window = 0;
  std::size_t watermark = 0;        // next unit to reduce, strictly ascending
  std::vector<std::uint8_t> done;   // ring, size `window`: 0 pending, 1 ok, 2 failed
  std::condition_variable slot_free;

  std::atomic<std::size_t> next_unit{0};  // claim cursor; overshoots claim_limit

  /// Captures the active exception as a UnitError.  Once kMaxRecordedErrors
  /// are held, a lower unit evicts the highest, so the recorded set -- and
  /// the lowest unit throw_if_failed() rethrows -- is the same at every
  /// thread count whenever the failures are.  Under a truncating policy also
  /// halts claiming and lowers `truncate_at`.  Caller must hold `mutex` and
  /// be inside a catch block.
  void record_error_locked(std::size_t unit, std::size_t worker, bool truncating) {
    ++error_count;
    UnitError error{unit, worker, "unknown exception", std::current_exception()};
    try {
      throw;
    } catch (const std::exception& e) {
      error.what = e.what();
    } catch (...) {
    }
    if (errors.size() < SweepOutcome::kMaxRecordedErrors) {
      errors.push_back(std::move(error));
    } else {
      const auto highest = std::max_element(
          errors.begin(), errors.end(),
          [](const UnitError& a, const UnitError& b) { return a.unit < b.unit; });
      if (unit < highest->unit) *highest = std::move(error);
    }
    if (truncating) {
      halted.store(true, std::memory_order_relaxed);
      if (unit < truncate_at) truncate_at = unit;
      slot_free.notify_all();  // waiters above the truncation point bail
    }
  }

  void worker_main(std::size_t worker_index) {
    WorkerContext ctx;
    ctx.worker_ = worker_index;
    std::uint64_t seen_generation = 0;
    while (true) {
      obs::Counters* cell = nullptr;
      obs::TraceLog* trace = nullptr;
      obs::SweepProgress* progress = nullptr;
      const FaultPlan* faults = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] { return stopping || generation != seen_generation; });
        if (stopping) return;
        seen_generation = generation;
        if (telemetry.registry != nullptr &&
            worker_index < telemetry.registry->worker_count()) {
          cell = &telemetry.registry->worker(worker_index);
        }
        trace = telemetry.trace;
        progress = telemetry.progress;
        faults = control->fault_plan();
      }
      // Worker w's counter cell becomes this thread's sink for the whole
      // job, so instrumented subsystems deep in the unit function (SPF
      // repair, routing caches, incidence probes, forwarding) attribute to
      // the right worker with zero plumbing.  Null cell == telemetry off ==
      // one predictable branch per instrumentation point.
      obs::ScopedSink sink_guard(cell);
      // Clocks are only read when something consumes them; an unobserved
      // sweep runs the exact pre-telemetry claim loop.
      const bool timed = cell != nullptr || trace != nullptr || progress != nullptr;
      while (true) {
        if (halted.load(std::memory_order_relaxed)) break;
        // Cooperative stop checks happen BEFORE claiming: a claimed unit
        // always runs to completion, which is what keeps the executed set a
        // contiguous prefix (claims are handed out in order).
        const bool cancelled = control->cancelled();
        if (cancelled || control->deadline_expired()) {
          halted.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(mutex);
          (cancelled ? saw_cancel : saw_deadline) = true;
          break;
        }
        const std::size_t unit = next_unit.fetch_add(1, std::memory_order_relaxed);
        if (unit >= claim_limit) break;
        if (faults != nullptr && faults->should_abort(unit)) {
          // A REAL crash, on purpose: no unwinding, no drain, no final
          // checkpoint -- SIGABRT at the claim of unit `unit`.  This is the
          // injection the durable store and the supervisor are proven
          // against; every auto-checkpoint already persisted is a canonical
          // prefix strictly below this unit, so resume loses at most one
          // cadence interval of work.
          std::abort();
        }
        if (reduce != nullptr) {
          // Ordered job: the unit's ring slot must be free, i.e. every unit
          // `window` or more below must have been reduced.  The holder of the
          // watermark unit never waits here, so the pipeline always advances.
          // A truncation below this unit makes its result irrelevant -- bail
          // (dropping a claim ABOVE the truncation point cannot hole the
          // surviving prefix).  Waiters at or below the truncation point must
          // keep going: the watermark still has to reach them.
          std::unique_lock<std::mutex> lock(mutex);
          slot_free.wait(lock, [&] {
            return truncate_at < unit || unit < watermark + window;
          });
          if (truncate_at < unit) continue;
        }
        ctx.rng_ = graph::Rng(split_seed(seed, unit));
        std::uint64_t unit_t0 = 0;
        if (timed) {
          unit_t0 = obs::now_ns();
          // Started BEFORE any injected stall so the stall detector sees the
          // wedged claim -- exactly what PR_FAULT_STALL_UNIT exercises.
          if (progress != nullptr) progress->unit_started(worker_index, unit, unit_t0);
        }
        if (faults != nullptr) {
          const auto stall = faults->stall_for(unit);
          if (stall.count() > 0) {
            if (trace != nullptr) {
              trace->record_instant(obs::SpanKind::kFault,
                                    static_cast<std::uint32_t>(worker_index), unit,
                                    static_cast<std::uint64_t>(stall.count()));
            }
            std::this_thread::sleep_for(stall);
          }
        }
        bool ok = true;
        try {
          if (faults != nullptr && faults->should_throw(unit)) {
            if (trace != nullptr) {
              trace->record_instant(obs::SpanKind::kFault,
                                    static_cast<std::uint32_t>(worker_index), unit);
            }
            throw InjectedFault("injected fault in unit " + std::to_string(unit));
          }
          (*fn)(unit, ctx);
        } catch (...) {
          ok = false;
          if (cell != nullptr) cell->add(obs::Counter::kUnitErrors);
          std::lock_guard<std::mutex> lock(mutex);
          record_error_locked(unit, worker_index,
                              control->error_policy() == UnitErrorPolicy::kStop);
        }
        if (timed) {
          const std::uint64_t unit_t1 = obs::now_ns();
          if (progress != nullptr) progress->unit_finished(worker_index, unit_t1);
          if (cell != nullptr) {
            cell->add(obs::Counter::kUnitsExecuted);
            cell->add_phase(obs::Phase::kUnit, unit_t1 - unit_t0);
          }
          if (trace != nullptr) {
            trace->record(obs::TraceSpan{obs::SpanKind::kUnit,
                                         static_cast<std::uint32_t>(worker_index), unit,
                                         unit_t0, unit_t1, ok ? 0u : 1u});
          }
        }
        if (reduce != nullptr) {
          std::unique_lock<std::mutex> lock(mutex);
          if (truncate_at <= unit) continue;  // truncated at/below: slot irrelevant
          done[unit % window] = ok ? 1 : 2;
          // Fold every contiguously-completed unit from the watermark up, in
          // canonical order.  Serialised by `mutex`, so reduce() never runs
          // concurrently with itself and the sequence is 0, 1, 2, ... for
          // every thread count.  Mark 2 (contained unit failure under
          // kContinue) advances the watermark without folding.
          bool advanced = false;
          while (watermark < claim_limit && watermark < truncate_at &&
                 done[watermark % window] != 0) {
            const bool fold = done[watermark % window] == 1;
            done[watermark % window] = 0;
            if (fold) {
              try {
                const std::uint64_t reduce_t0 = timed ? obs::now_ns() : 0;
                (*reduce)(watermark);
                if (timed) {
                  const std::uint64_t reduce_t1 = obs::now_ns();
                  if (cell != nullptr) {
                    cell->add(obs::Counter::kReduceCalls);
                    cell->add_phase(obs::Phase::kReduce, reduce_t1 - reduce_t0);
                  }
                  if (trace != nullptr) {
                    trace->record(obs::TraceSpan{
                        obs::SpanKind::kReduce, static_cast<std::uint32_t>(worker_index),
                        watermark, reduce_t0, reduce_t1, 0});
                  }
                }
              } catch (...) {
                // A reduce failure truncates under EVERY policy: streaming
                // state past this point would be half-folded.
                record_error_locked(watermark, worker_index, /*truncating=*/true);
                break;
              }
            }
            ++watermark;
            advanced = true;
          }
          if (advanced) slot_free.notify_all();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (++idle_workers == workers.size()) job_done.notify_all();
      }
    }
  }
};

SweepExecutor::SweepExecutor(std::size_t threads) {
  if (threads > kMaxSweepThreads) {
    throw std::invalid_argument("SweepExecutor: " + std::to_string(threads) +
                                " threads exceeds kMaxSweepThreads (" +
                                std::to_string(kMaxSweepThreads) + ")");
  }
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  impl_ = std::make_unique<Impl>();
  impl_->idle_workers = threads;  // no job yet; everyone counts as finished
  impl_->workers.reserve(threads);
  try {
    for (std::size_t w = 0; w < threads; ++w) {
      impl_->workers.emplace_back([this, w] { impl_->worker_main(w); });
    }
  } catch (...) {
    // A spawn failed partway (e.g. RLIMIT_NPROC): stop and join the workers
    // that did start, so unwinding never destroys a joinable std::thread.
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      impl_->stopping = true;
    }
    impl_->work_ready.notify_all();
    for (std::thread& t : impl_->workers) t.join();
    throw;
  }
}

SweepExecutor::~SweepExecutor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

std::size_t SweepExecutor::thread_count() const noexcept {
  return impl_->workers.size();
}

void SweepExecutor::set_telemetry(const SweepTelemetry& telemetry) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->job_active) {
    throw std::logic_error(
        "SweepExecutor::set_telemetry: cannot swap telemetry while a job is "
        "running");
  }
  if (telemetry.registry != nullptr) {
    telemetry.registry->ensure_workers(impl_->workers.size());
  }
  impl_->telemetry = telemetry;
}

void throw_if_failed(const SweepOutcome& outcome) {
  const UnitError* e = outcome.first_error();
  if (e == nullptr) return;
  if (!e->cause) throw SweepUnitError(e->unit, e->worker, e->what);
  // Rethrow with unit/worker context; std::throw_with_nested attaches the
  // original so callers can still dig out its concrete type.
  try {
    std::rethrow_exception(e->cause);
  } catch (...) {
    std::throw_with_nested(SweepUnitError(e->unit, e->worker, e->what));
  }
}

void SweepExecutor::run(std::size_t unit_count, const UnitFn& fn, std::uint64_t seed) {
  throw_if_failed(run(unit_count, fn, RunControl{}, RunOptions{.seed = seed}));
}

void SweepExecutor::run_ordered(std::size_t unit_count, const UnitFn& fn,
                                const ReduceFn& reduce, std::uint64_t seed,
                                std::size_t window) {
  throw_if_failed(run(unit_count, fn, RunControl{},
                      RunOptions{.seed = seed, .reduce = reduce, .window = window}));
}

std::size_t SweepExecutor::default_ordered_window() const noexcept {
  return std::max<std::size_t>(4 * impl_->workers.size(), 16);
}

SweepOutcome SweepExecutor::run(std::size_t unit_count, const UnitFn& fn,
                                const RunControl& control, const RunOptions& options) {
  if (unit_count == 0) return SweepOutcome{};
  std::unique_lock<std::mutex> lock(impl_->mutex);
  if (impl_->job_active) {
    throw std::logic_error(
        "SweepExecutor::run: executor already driving a job (no reentrant or "
        "concurrent run() calls; give each driving thread its own executor)");
  }
  const ReduceFn* reduce = options.reduce ? &options.reduce : nullptr;
  const std::size_t window =
      reduce == nullptr ? 0
                        : (options.window == 0 ? default_ordered_window() : options.window);
  impl_->job_active = true;
  impl_->fn = &fn;
  impl_->claim_limit = std::min(unit_count, control.unit_budget());
  impl_->seed = options.seed;
  impl_->reduce = reduce;
  impl_->window = window;
  impl_->watermark = 0;
  impl_->done.assign(window, 0);
  impl_->control = &control;
  impl_->halted.store(false, std::memory_order_relaxed);
  impl_->saw_cancel = false;
  impl_->saw_deadline = false;
  impl_->errors.clear();
  impl_->error_count = 0;
  impl_->truncate_at = Impl::kNoTruncation;
  impl_->next_unit.store(0, std::memory_order_relaxed);
  impl_->idle_workers = 0;
  impl_->auto_checkpoints = 0;
  impl_->checkpoint_failures = 0;

  // A monitor thread runs while progress is attached and/or an active
  // auto-checkpoint is installed: progress ticks (snapshot callbacks, stall
  // detection) and periodic checkpoints both belong off the worker threads.
  // Taking the executor mutex only to WAIT keeps the monitor off the
  // workers' lock hot path; progress ticks and checkpoint persists run
  // unlocked -- only checkpoint SERIALIZATION runs under the lock, which is
  // precisely what freezes the watermark and makes the blob a canonical
  // prefix (see AutoCheckpoint).
  obs::SweepProgress* progress = impl_->telemetry.progress;
  obs::TraceLog* trace = impl_->telemetry.trace;
  const AutoCheckpoint* ckpt =
      (options.checkpoint != nullptr && options.checkpoint->active()) ? options.checkpoint
                                                                      : nullptr;
  std::thread monitor;
  if (progress != nullptr || ckpt != nullptr) {
    if (progress != nullptr) {
      progress->begin_job(impl_->workers.size(), impl_->claim_limit, obs::now_ns());
    }
    // Poll granularity: the progress interval and/or the checkpoint period,
    // whichever is finer.  A pure unit cadence still needs the watermark
    // observed; 10ms keeps worst-case checkpoint lag far below any fsync.
    std::chrono::nanoseconds interval = std::chrono::nanoseconds::max();
    if (progress != nullptr) {
      interval = std::chrono::nanoseconds(progress->options().interval_ns);
    }
    if (ckpt != nullptr) {
      const std::chrono::nanoseconds ckpt_poll =
          ckpt->cadence.period.count() > 0
              ? std::chrono::nanoseconds(ckpt->cadence.period)
              : std::chrono::nanoseconds(std::chrono::milliseconds(10));
      interval = std::min(interval, ckpt_poll);
    }
    monitor = std::thread([this, progress, trace, ckpt, interval] {
      auto last_ckpt_time = std::chrono::steady_clock::now();
      std::size_t last_ckpt_units = 0;
      std::unique_lock<std::mutex> mon_lock(impl_->mutex);
      while (impl_->idle_workers != impl_->workers.size()) {
        if (impl_->job_done.wait_for(mon_lock, interval, [&] {
              return impl_->idle_workers == impl_->workers.size();
            })) {
          break;
        }
        if (ckpt != nullptr) {
          const std::size_t k = impl_->watermark;
          const auto now = std::chrono::steady_clock::now();
          const bool unit_due =
              ckpt->cadence.units != 0 && k >= last_ckpt_units + ckpt->cadence.units;
          const bool time_due = ckpt->cadence.period.count() != 0 &&
                                now - last_ckpt_time >= ckpt->cadence.period;
          if ((unit_due || time_due) && k != last_ckpt_units) {
            // k > last_ckpt_units always (the watermark is monotone); skip
            // only when nothing new completed since the last generation.
            std::string blob;
            bool sealed = true;
            try {
              blob = ckpt->serialize(k);  // under the lock: watermark frozen
            } catch (...) {
              sealed = false;
              ++impl_->checkpoint_failures;
            }
            if (sealed) {
              mon_lock.unlock();
              bool persisted = true;
              try {
                ckpt->persist(k, std::move(blob));
              } catch (...) {
                persisted = false;
              }
              if (persisted && trace != nullptr) {
                trace->record_instant(obs::SpanKind::kCheckpoint, 0, k);
              }
              mon_lock.lock();
              if (persisted) {
                ++impl_->auto_checkpoints;
                last_ckpt_units = k;
              } else {
                ++impl_->checkpoint_failures;
              }
            }
            last_ckpt_time = now;  // re-arm the timer even on failure
          } else if (unit_due || time_due) {
            last_ckpt_time = now;  // due but idle: nothing new to persist
          }
        }
        if (progress != nullptr) {
          mon_lock.unlock();
          const std::uint64_t stalls_before = progress->stalls_detected();
          progress->tick(obs::now_ns());
          if (trace != nullptr && progress->stalls_detected() > stalls_before) {
            trace->record_instant(obs::SpanKind::kStall, 0, 0,
                                  progress->stalls_detected());
          }
          mon_lock.lock();
        }
      }
    });
  }

  ++impl_->generation;
  impl_->work_ready.notify_all();
  impl_->job_done.wait(lock, [&] { return impl_->idle_workers == impl_->workers.size(); });
  impl_->fn = nullptr;
  impl_->reduce = nullptr;
  impl_->control = nullptr;
  impl_->job_active = false;

  SweepOutcome outcome;
  const bool truncated = impl_->truncate_at != Impl::kNoTruncation;
  if (reduce != nullptr) {
    outcome.completed_units = impl_->watermark;
  } else {
    // An unordered run executes every unit it claims, and claims in order.
    outcome.completed_units =
        truncated ? impl_->truncate_at
                  : std::min(impl_->next_unit.load(std::memory_order_relaxed),
                             impl_->claim_limit);
  }
  outcome.errors = std::move(impl_->errors);  // the next run clears it
  std::sort(outcome.errors.begin(), outcome.errors.end(),
            [](const UnitError& a, const UnitError& b) {
              return a.unit != b.unit ? a.unit < b.unit : a.worker < b.worker;
            });
  outcome.error_count = impl_->error_count;
  if (truncated) {
    outcome.stop_reason = StopReason::kUnitError;
  } else if (outcome.completed_units == unit_count) {
    outcome.stop_reason = StopReason::kCompleted;
  } else if (impl_->saw_cancel) {
    outcome.stop_reason = StopReason::kCancelled;
  } else if (impl_->saw_deadline) {
    outcome.stop_reason = StopReason::kDeadline;
  } else {
    outcome.stop_reason = StopReason::kBudget;  // claim_limit < unit_count
  }

  const std::size_t truncation_point = impl_->truncate_at;
  lock.unlock();

  // The monitor holds the mutex while waiting, so it is joined only after
  // the lock is released.
  if (monitor.joinable()) monitor.join();
  // Checkpoint counters are read AFTER the join: a persist in flight when the
  // pool drained still completes (and counts) before run() returns.
  outcome.auto_checkpoints = impl_->auto_checkpoints;
  outcome.checkpoint_failures = impl_->checkpoint_failures;
  if (progress != nullptr) progress->end_job(obs::now_ns());
  if (trace != nullptr && truncated) {
    trace->record_instant(obs::SpanKind::kTruncate, 0, truncation_point,
                          outcome.completed_units);
  }
  return outcome;
}

}  // namespace pr::sim
