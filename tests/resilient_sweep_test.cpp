// Robustness suite for controlled sweeps (sim/run_control.hpp +
// sim/fault_plan.hpp through SweepExecutor).
//
// The contract under test is DETERMINISTIC TRUNCATION: however a controlled
// sweep stops -- budget, cancel, deadline, contained unit error, injected
// fault -- the surviving results are the canonical prefix [0, k) of the unit
// order, the ordered-reduce sequence is exactly 0, 1, ..., k-1, and the
// executor remains usable.  Timing faults (stalls) may reshuffle completion
// order but must never change results; that is what makes checkpoint/resume
// exact downstream.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/run_control.hpp"

namespace pr {
namespace {

using sim::FaultPlan;
using sim::InjectedFault;
using sim::RunControl;
using sim::StopReason;
using sim::SweepExecutor;
using sim::SweepOutcome;
using sim::UnitErrorPolicy;
using sim::WorkerContext;

/// Collects the ordered-reduce sequence; ReduceFn is serialised by the
/// executor so no locking is needed here.
struct ReduceLog {
  std::vector<std::size_t> units;
  SweepExecutor::ReduceFn fn() {
    return [this](std::size_t unit) { units.push_back(unit); };
  }
  [[nodiscard]] bool is_prefix(std::size_t k) const {
    if (units.size() != k) return false;
    for (std::size_t i = 0; i < k; ++i) {
      if (units[i] != i) return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// RunControl and FaultPlan mechanics

TEST(RunControlTest, CancelIsStickyAndResettable) {
  RunControl control;
  EXPECT_FALSE(control.cancelled());
  control.cancel();
  EXPECT_TRUE(control.cancelled());
  control.cancel();  // idempotent
  EXPECT_TRUE(control.cancelled());
  control.reset_cancel();
  EXPECT_FALSE(control.cancelled());
}

TEST(RunControlTest, DeadlineExpiryTracksTheClock) {
  RunControl control;
  EXPECT_FALSE(control.has_deadline());
  EXPECT_FALSE(control.deadline_expired());

  control.set_timeout(std::chrono::hours(1));
  EXPECT_TRUE(control.has_deadline());
  EXPECT_FALSE(control.deadline_expired());

  control.set_deadline(RunControl::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(control.deadline_expired());

  control.clear_deadline();
  EXPECT_FALSE(control.has_deadline());
  EXPECT_FALSE(control.deadline_expired());
}

TEST(RunControlTest, BudgetDefaultsToUnlimited) {
  RunControl control;
  EXPECT_EQ(control.unit_budget(), RunControl::kNoBudget);
  control.set_unit_budget(7);
  EXPECT_EQ(control.unit_budget(), 7u);
  control.clear_unit_budget();
  EXPECT_EQ(control.unit_budget(), RunControl::kNoBudget);
}

TEST(FaultPlanTest, BuildersAndQueries) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.describe(), "no faults");

  plan.throw_in_unit(3).stall_unit(5, std::chrono::milliseconds(20)).malformed_scenario(9);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.should_throw(3));
  EXPECT_FALSE(plan.should_throw(4));
  EXPECT_EQ(plan.stall_for(5), std::chrono::milliseconds(20));
  EXPECT_EQ(plan.stall_for(6), std::chrono::milliseconds(0));
  EXPECT_TRUE(plan.malformed(9));
  EXPECT_FALSE(plan.fail_checkpoint());
  plan.fail_at_checkpoint();
  EXPECT_TRUE(plan.fail_checkpoint());
  EXPECT_NE(plan.describe().find("throw in unit 3"), std::string::npos);

  // abort_in_unit is queried like every other hook -- but NEVER executed
  // in-process here: std::abort() is real (the supervisor tests run it in
  // child processes).
  EXPECT_FALSE(plan.should_abort(11));
  plan.abort_in_unit(11);
  EXPECT_TRUE(plan.should_abort(11));
  EXPECT_FALSE(plan.should_abort(12));
  EXPECT_NE(plan.describe().find("abort in unit 11"), std::string::npos);

  FaultPlan abort_only;
  abort_only.abort_in_unit(0);
  EXPECT_FALSE(abort_only.empty());
}

TEST(FaultPlanTest, FromEnvParsesAndRejects) {
  ::setenv("PR_FAULT_THROW_UNIT", "3,17", 1);
  ::setenv("PR_FAULT_STALL_UNIT", "4:25,9:1", 1);
  ::setenv("PR_FAULT_FAIL_CHECKPOINT", "1", 1);
  ::setenv("PR_FAULT_MALFORMED_UNIT", "6", 1);
  ::setenv("PR_FAULT_ABORT_UNIT", "12,40", 1);
  FaultPlan plan = FaultPlan::from_env();
  EXPECT_TRUE(plan.should_throw(3));
  EXPECT_TRUE(plan.should_throw(17));
  EXPECT_EQ(plan.stall_for(4), std::chrono::milliseconds(25));
  EXPECT_EQ(plan.stall_for(9), std::chrono::milliseconds(1));
  EXPECT_TRUE(plan.fail_checkpoint());
  EXPECT_TRUE(plan.malformed(6));
  EXPECT_TRUE(plan.should_abort(12));
  EXPECT_TRUE(plan.should_abort(40));
  EXPECT_FALSE(plan.should_abort(13));

  // A typo'd plan must throw, not silently inject nothing.
  ::setenv("PR_FAULT_THROW_UNIT", "3x", 1);
  EXPECT_THROW((void)FaultPlan::from_env(), std::invalid_argument);
  ::setenv("PR_FAULT_THROW_UNIT", "3", 1);
  ::setenv("PR_FAULT_STALL_UNIT", "noms", 1);
  EXPECT_THROW((void)FaultPlan::from_env(), std::invalid_argument);
  ::setenv("PR_FAULT_STALL_UNIT", "4:25", 1);
  ::setenv("PR_FAULT_FAIL_CHECKPOINT", "maybe", 1);
  EXPECT_THROW((void)FaultPlan::from_env(), std::invalid_argument);
  ::setenv("PR_FAULT_FAIL_CHECKPOINT", "0", 1);

  // Every parse error names the offending variable AND its full value, so a
  // CI failure is diagnosable from the message alone.
  ::setenv("PR_FAULT_THROW_UNIT", "3,oops", 1);
  try {
    (void)FaultPlan::from_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PR_FAULT_THROW_UNIT"), std::string::npos) << what;
    EXPECT_NE(what.find("3,oops"), std::string::npos) << what;
  }

  // Duplicate units in one variable are an editing mistake, not a request:
  // sets would silently collapse them and the stall map would keep only the
  // last delay, so from_env rejects them outright.
  ::setenv("PR_FAULT_THROW_UNIT", "3,7,3", 1);
  try {
    (void)FaultPlan::from_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PR_FAULT_THROW_UNIT"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate unit 3"), std::string::npos) << what;
    EXPECT_NE(what.find("3,7,3"), std::string::npos) << what;
  }
  ::setenv("PR_FAULT_THROW_UNIT", "3", 1);
  ::setenv("PR_FAULT_STALL_UNIT", "4:25,4:50", 1);
  EXPECT_THROW((void)FaultPlan::from_env(), std::invalid_argument);
  ::setenv("PR_FAULT_STALL_UNIT", "4:25", 1);
  ::setenv("PR_FAULT_MALFORMED_UNIT", "6,6", 1);
  EXPECT_THROW((void)FaultPlan::from_env(), std::invalid_argument);
  ::setenv("PR_FAULT_MALFORMED_UNIT", "6", 1);

  // PR_FAULT_ABORT_UNIT gets the same strictness: malformed values and
  // duplicates are configuration errors, never a silent no-op (an abort plan
  // that quietly parses to nothing would make a crash-resume test vacuous).
  ::setenv("PR_FAULT_ABORT_UNIT", "12x", 1);
  try {
    (void)FaultPlan::from_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PR_FAULT_ABORT_UNIT"), std::string::npos) << what;
    EXPECT_NE(what.find("12x"), std::string::npos) << what;
  }
  ::setenv("PR_FAULT_ABORT_UNIT", "12,12", 1);
  EXPECT_THROW((void)FaultPlan::from_env(), std::invalid_argument);

  ::unsetenv("PR_FAULT_THROW_UNIT");
  ::unsetenv("PR_FAULT_STALL_UNIT");
  ::unsetenv("PR_FAULT_FAIL_CHECKPOINT");
  ::unsetenv("PR_FAULT_MALFORMED_UNIT");
  ::unsetenv("PR_FAULT_ABORT_UNIT");
  EXPECT_TRUE(FaultPlan::from_env().empty());
}

TEST(StopReasonTest, NamesAreStable) {
  EXPECT_STREQ(sim::to_string(StopReason::kCompleted), "completed");
  EXPECT_STREQ(sim::to_string(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(sim::to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(sim::to_string(StopReason::kBudget), "budget");
  EXPECT_STREQ(sim::to_string(StopReason::kUnitError), "unit-error");
}

// ---------------------------------------------------------------------------
// Budget truncation: the only deterministic-by-construction stop, so the
// prefix must be EXACT at every thread count.

TEST(ControlledSweepTest, BudgetTruncatesToTheExactPrefix) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;
    control.set_unit_budget(13);

    std::atomic<std::size_t> ran{0};
    ReduceLog log;
    const SweepOutcome outcome = executor.run(
        100,
        [&](std::size_t, WorkerContext&) {
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        control, {.seed = 1, .reduce = log.fn()});

    EXPECT_EQ(outcome.stop_reason, StopReason::kBudget) << threads;
    EXPECT_EQ(outcome.completed_units, 13u) << threads;
    EXPECT_FALSE(outcome.complete());
    EXPECT_TRUE(outcome.errors.empty());
    EXPECT_EQ(ran.load(), 13u) << threads;
    EXPECT_TRUE(log.is_prefix(13)) << threads;
  }
}

TEST(ControlledSweepTest, BudgetOnPlainRunIsExactToo) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;
    control.set_unit_budget(29);
    std::vector<std::atomic<int>> hits(100);
    const SweepOutcome outcome = executor.run(
        100,
        [&](std::size_t unit, WorkerContext&) {
          hits[unit].fetch_add(1, std::memory_order_relaxed);
        },
        control);
    EXPECT_EQ(outcome.stop_reason, StopReason::kBudget);
    EXPECT_EQ(outcome.completed_units, 29u);
    for (std::size_t u = 0; u < 100; ++u) {
      EXPECT_EQ(hits[u].load(), u < 29 ? 1 : 0) << "unit " << u;
    }
  }
}

TEST(ControlledSweepTest, BudgetLargerThanUnitCountCompletes) {
  SweepExecutor executor(4);
  RunControl control;
  control.set_unit_budget(1000);
  ReduceLog log;
  const SweepOutcome outcome = executor.run(
      10, [](std::size_t, WorkerContext&) {}, control, {.reduce = log.fn()});
  EXPECT_EQ(outcome.stop_reason, StopReason::kCompleted);
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.completed_units, 10u);
  EXPECT_TRUE(log.is_prefix(10));
}

TEST(ControlledSweepTest, ZeroBudgetRunsNothing) {
  SweepExecutor executor(2);
  RunControl control;
  control.set_unit_budget(0);
  std::atomic<std::size_t> ran{0};
  const SweepOutcome outcome = executor.run(
      50,
      [&](std::size_t, WorkerContext&) {
        ran.fetch_add(1, std::memory_order_relaxed);
      },
      control);
  EXPECT_EQ(outcome.stop_reason, StopReason::kBudget);
  EXPECT_EQ(outcome.completed_units, 0u);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ControlledSweepTest, ZeroUnitsIsCompleted) {
  SweepExecutor executor(2);
  RunControl control;
  const SweepOutcome outcome =
      executor.run(0, [](std::size_t, WorkerContext&) {}, control);
  EXPECT_EQ(outcome.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(outcome.completed_units, 0u);
}

// ---------------------------------------------------------------------------
// Deadline

TEST(ControlledSweepTest, AlreadyExpiredDeadlineRunsNothing) {
  SweepExecutor executor(4);
  RunControl control;
  control.set_deadline(RunControl::Clock::now() - std::chrono::seconds(1));
  std::atomic<std::size_t> ran{0};
  ReduceLog log;
  const SweepOutcome outcome = executor.run(
      1000,
      [&](std::size_t, WorkerContext&) {
        ran.fetch_add(1, std::memory_order_relaxed);
      },
      control, {.reduce = log.fn()});
  EXPECT_EQ(outcome.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(outcome.completed_units, 0u);
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_TRUE(log.units.empty());
}

TEST(ControlledSweepTest, MidSweepDeadlineDrainsToAPrefix) {
  // Sleepy units + a deadline that trips partway: the sweep must stop with
  // SOME canonical prefix (where exactly depends on timing), never a hole.
  SweepExecutor executor(4);
  RunControl control;
  control.set_timeout(std::chrono::milliseconds(50));
  ReduceLog log;
  const SweepOutcome outcome = executor.run(
      10000,
      [&](std::size_t, WorkerContext&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      },
      control, {.reduce = log.fn()});
  EXPECT_EQ(outcome.stop_reason, StopReason::kDeadline);
  EXPECT_LT(outcome.completed_units, 10000u);
  EXPECT_TRUE(log.is_prefix(outcome.completed_units));
}

// ---------------------------------------------------------------------------
// Cancellation

TEST(ControlledSweepTest, CancelFromInsideAUnitDrainsToAPrefix) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;
    ReduceLog log;
    const SweepOutcome outcome = executor.run(
        10000,
        [&](std::size_t unit, WorkerContext&) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          if (unit == 20) control.cancel();
        },
        control, {.reduce = log.fn()});
    EXPECT_EQ(outcome.stop_reason, StopReason::kCancelled) << threads;
    // Unit 20 ran (it did the cancelling), so the prefix covers it; workers
    // observe the flag at the next claim, so the prefix stays small.
    EXPECT_GE(outcome.completed_units, 21u) << threads;
    EXPECT_LT(outcome.completed_units, 10000u) << threads;
    EXPECT_TRUE(log.is_prefix(outcome.completed_units)) << threads;
  }
}

TEST(ControlledSweepTest, CancelFromAnotherThreadStopsTheSweep) {
  SweepExecutor executor(2);
  RunControl control;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    control.cancel();
  });
  ReduceLog log;
  const SweepOutcome outcome = executor.run(
      1000000,
      [&](std::size_t, WorkerContext&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      },
      control, {.reduce = log.fn()});
  canceller.join();
  EXPECT_EQ(outcome.stop_reason, StopReason::kCancelled);
  EXPECT_LT(outcome.completed_units, 1000000u);
  EXPECT_TRUE(log.is_prefix(outcome.completed_units));
}

TEST(ControlledSweepTest, CancelledControlIsReusableAfterReset) {
  SweepExecutor executor(2);
  RunControl control;
  control.cancel();
  const SweepOutcome stopped =
      executor.run(10, [](std::size_t, WorkerContext&) {}, control);
  EXPECT_EQ(stopped.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(stopped.completed_units, 0u);

  control.reset_cancel();
  const SweepOutcome done =
      executor.run(10, [](std::size_t, WorkerContext&) {}, control);
  EXPECT_EQ(done.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(done.completed_units, 10u);
}

// ---------------------------------------------------------------------------
// Error containment

TEST(ControlledSweepTest, StopPolicyTruncatesAtTheFailingUnit) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;  // kStop is the default policy
    FaultPlan faults;
    faults.throw_in_unit(23);
    control.set_fault_plan(&faults);

    ReduceLog log;
    const SweepOutcome outcome = executor.run(
        200, [](std::size_t, WorkerContext&) {}, control, {.seed = 7, .reduce = log.fn()});

    EXPECT_EQ(outcome.stop_reason, StopReason::kUnitError) << threads;
    EXPECT_EQ(outcome.completed_units, 23u) << threads;
    EXPECT_TRUE(log.is_prefix(23)) << threads;
    ASSERT_FALSE(outcome.errors.empty());
    const sim::UnitError* first = outcome.first_error();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->unit, 23u);
    EXPECT_NE(first->what.find("injected fault in unit 23"), std::string::npos);
    EXPECT_GE(outcome.error_count, 1u);

    // The executor survives and the control can drive a clean follow-up run.
    control.set_fault_plan(nullptr);
    const SweepOutcome clean = executor.run(
        5, [](std::size_t, WorkerContext&) {}, control, {.reduce = log.fn()});
    EXPECT_EQ(clean.stop_reason, StopReason::kCompleted);
  }
}

TEST(ControlledSweepTest, ContinuePolicySkipsFailedUnitsAndFinishes) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;
    control.set_error_policy(UnitErrorPolicy::kContinue);
    FaultPlan faults;
    faults.throw_in_unit(5).throw_in_unit(40).throw_in_unit(41);
    control.set_fault_plan(&faults);

    std::atomic<std::size_t> ran{0};
    ReduceLog log;
    const SweepOutcome outcome = executor.run(
        60,
        [&](std::size_t, WorkerContext&) {
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        control, {.reduce = log.fn()});

    // kContinue reaches the end: the sweep is "completed with errors".
    EXPECT_EQ(outcome.stop_reason, StopReason::kCompleted) << threads;
    EXPECT_EQ(outcome.completed_units, 60u) << threads;
    EXPECT_EQ(outcome.error_count, 3u) << threads;
    ASSERT_EQ(outcome.errors.size(), 3u);
    EXPECT_EQ(outcome.errors[0].unit, 5u);
    EXPECT_EQ(outcome.errors[1].unit, 40u);
    EXPECT_EQ(outcome.errors[2].unit, 41u);
    // Failed units never reach the reduce hook; everyone else does, in order.
    ASSERT_EQ(log.units.size(), 57u);
    std::size_t expect = 0;
    for (const std::size_t unit : log.units) {
      while (expect == 5 || expect == 40 || expect == 41) ++expect;
      EXPECT_EQ(unit, expect);
      ++expect;
    }
    // 57 successful + 3 faulted claims were all attempted.
    EXPECT_EQ(ran.load(), 57u) << threads;  // fn not reached for faulted units
  }
}

TEST(ControlledSweepTest, RecordedErrorsAreTheLowestFailingUnits) {
  // More failures than the outcome records: whichever order the workers
  // finish in, the recorded list is the lowest units, and throw_if_failed
  // rethrows the lowest of them with its original exception nested.
  constexpr std::size_t kUnits = 3 * SweepOutcome::kMaxRecordedErrors;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;
    control.set_error_policy(UnitErrorPolicy::kContinue);
    const SweepOutcome outcome = executor.run(
        kUnits,
        [](std::size_t unit, WorkerContext&) {
          throw std::runtime_error("boom " + std::to_string(unit));
        },
        control);
    EXPECT_EQ(outcome.error_count, kUnits) << threads;
    ASSERT_EQ(outcome.errors.size(), SweepOutcome::kMaxRecordedErrors) << threads;
    for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
      EXPECT_EQ(outcome.errors[i].unit, i) << threads;
    }
    try {
      sim::throw_if_failed(outcome);
      FAIL() << "expected SweepUnitError @ " << threads;
    } catch (const sim::SweepUnitError& e) {
      EXPECT_EQ(e.unit(), 0u) << threads;
      EXPECT_THROW(std::rethrow_if_nested(e), std::runtime_error);
    }
  }
}

TEST(ControlledSweepTest, PlainRunContainsErrorsWithoutThrowing) {
  SweepExecutor executor(4);
  RunControl control;
  const SweepOutcome outcome = executor.run(
      100,
      [](std::size_t unit, WorkerContext&) {
        if (unit == 31) throw std::runtime_error("boom 31");
      },
      control);
  EXPECT_EQ(outcome.stop_reason, StopReason::kUnitError);
  EXPECT_EQ(outcome.completed_units, 31u);
  ASSERT_NE(outcome.first_error(), nullptr);
  EXPECT_EQ(outcome.first_error()->unit, 31u);
  EXPECT_EQ(outcome.first_error()->what, "boom 31");
}

TEST(ControlledSweepTest, ReduceFailureTruncatesUnderEveryPolicy) {
  SweepExecutor executor(2);
  RunControl control;
  control.set_error_policy(UnitErrorPolicy::kContinue);
  std::vector<std::size_t> reduced;
  const SweepOutcome outcome = executor.run(
      50, [](std::size_t, WorkerContext&) {}, control,
      {.reduce = [&](std::size_t unit) {
         if (unit == 12) throw std::runtime_error("reduce died");
         reduced.push_back(unit);
       }});
  EXPECT_EQ(outcome.stop_reason, StopReason::kUnitError);
  EXPECT_EQ(outcome.completed_units, 12u);
  ASSERT_EQ(reduced.size(), 12u);
  ASSERT_NE(outcome.first_error(), nullptr);
  EXPECT_EQ(outcome.first_error()->unit, 12u);
  EXPECT_EQ(outcome.first_error()->what, "reduce died");
}

// ---------------------------------------------------------------------------
// Timing faults: stalls reshuffle completion order, never results.

TEST(ControlledSweepTest, StallsDoNotChangeResults) {
  std::vector<double> baseline;
  for (const bool stall : {false, true}) {
    SweepExecutor executor(4);
    RunControl control;
    FaultPlan faults;
    if (stall) {
      faults.stall_unit(0, std::chrono::milliseconds(30))
          .stall_unit(7, std::chrono::milliseconds(10));
      control.set_fault_plan(&faults);
    }
    std::vector<double> draws(40);
    std::vector<double> stream;
    const SweepOutcome outcome = executor.run(
        40,
        [&](std::size_t unit, WorkerContext& ctx) {
          draws[unit] = ctx.rng().unit();
        },
        control,
        {.seed = 99,
         .reduce = [&](std::size_t unit) { stream.push_back(draws[unit]); }});
    EXPECT_EQ(outcome.stop_reason, StopReason::kCompleted);
    if (baseline.empty()) {
      baseline = stream;
    } else {
      EXPECT_EQ(stream, baseline);  // bit-identical despite the stalls
    }
  }
}

// ---------------------------------------------------------------------------
// The throwing forms rethrow through throw_if_failed, with context.

TEST(ControlledSweepTest, LegacyRethrowNamesLowestUnitDeterministically) {
  // Two failing units: whatever the thread count claims first, the rethrown
  // error must name the LOWEST failing unit.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    try {
      executor.run(100, [](std::size_t unit, WorkerContext&) {
        if (unit == 11 || unit == 77) {
          throw std::runtime_error("fail " + std::to_string(unit));
        }
      });
      FAIL() << "expected SweepUnitError";
    } catch (const sim::SweepUnitError& e) {
      EXPECT_EQ(e.unit(), 11u) << threads;
    }
  }
}

}  // namespace
}  // namespace pr
