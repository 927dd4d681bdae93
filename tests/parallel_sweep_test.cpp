// Determinism suite for the parallel sharded sweep executor
// (sim/parallel_sweep.hpp).
//
// The executor is only allowed to be fast, not different: for every thread
// count the outcome counts and stretch sample sequences must be bit-identical
// to the serial route_batch sweeps, and the per-unit RNG streams must depend
// on the unit index alone.  The suite also pins the
// ProtocolStretch::coverage() corner semantics.
#include "sim/parallel_sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/stretch.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/failure_model.hpp"
#include "topo/topologies.hpp"

namespace pr {
namespace {

using sim::SweepExecutor;
using sim::WorkerContext;

// ---------------------------------------------------------------------------
// Executor mechanics

TEST(SplitSeedTest, DeterministicAndStreamSensitive) {
  EXPECT_EQ(sim::split_seed(42, 0), sim::split_seed(42, 0));
  EXPECT_NE(sim::split_seed(42, 0), sim::split_seed(42, 1));
  EXPECT_NE(sim::split_seed(42, 0), sim::split_seed(43, 0));
  // Adjacent streams of adjacent seeds must not collide either (the classic
  // counter-mixing failure mode).
  EXPECT_NE(sim::split_seed(42, 1), sim::split_seed(43, 0));
}

TEST(SweepExecutorTest, RunsEveryUnitExactlyOnce) {
  SweepExecutor executor(3);
  EXPECT_EQ(executor.thread_count(), 3u);

  constexpr std::size_t kUnits = 100;
  std::vector<std::atomic<int>> hits(kUnits);
  executor.run(kUnits, [&](std::size_t unit, WorkerContext&) {
    hits[unit].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t u = 0; u < kUnits; ++u) {
    EXPECT_EQ(hits[u].load(), 1) << "unit " << u;
  }
}

TEST(SweepExecutorTest, RejectsAbsurdThreadCounts) {
  // A "-1" CLI arg run through strtoull must not turn into 2^64-1 workers.
  EXPECT_THROW(SweepExecutor(sim::kMaxSweepThreads + 1), std::invalid_argument);
  EXPECT_THROW(SweepExecutor(static_cast<std::size_t>(-1)), std::invalid_argument);
}

TEST(ThreadsFromArgTest, ParsesValidatesAndFallsBack) {
  const auto with_args = [](std::vector<const char*> args, int index) {
    return sim::threads_from_arg(static_cast<int>(args.size()),
                                 const_cast<char**>(args.data()), index);
  };
  EXPECT_EQ(with_args({"bin", "4"}, 1), 4u);
  EXPECT_EQ(with_args({"bin", "0"}, 1), 0u);  // 0 = hardware, valid
  // Absent argument falls back (env unset in the test environment -> 0).
  EXPECT_EQ(with_args({"bin"}, 1), sim::threads_from_env(0));
  // Garbage, signs, suffixes and out-of-range values all throw instead of
  // silently spawning a surprise pool size.
  EXPECT_THROW(with_args({"bin", "-1"}, 1), std::invalid_argument);
  EXPECT_THROW(with_args({"bin", "x4"}, 1), std::invalid_argument);
  EXPECT_THROW(with_args({"bin", "4x"}, 1), std::invalid_argument);
  EXPECT_THROW(with_args({"bin", ""}, 1), std::invalid_argument);
  EXPECT_THROW(with_args({"bin", "99999999"}, 1), std::invalid_argument);
}

TEST(SweepExecutorTest, ZeroUnitsIsANoOp) {
  SweepExecutor executor(2);
  executor.run(0, [](std::size_t, WorkerContext&) { FAIL() << "unit ran"; });
}

TEST(SweepExecutorTest, ReusableAcrossRuns) {
  SweepExecutor executor(2);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    executor.run(10, [&](std::size_t unit, WorkerContext&) {
      sum.fetch_add(unit, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 45u) << "round " << round;
  }
}

TEST(SweepExecutorTest, PropagatesTheFirstException) {
  SweepExecutor executor(2);
  // The rethrown error names the failing unit and wraps the original
  // exception (throw_with_nested), so a million-scenario sweep failure says
  // WHICH scenario died.
  try {
    executor.run(20, [](std::size_t unit, WorkerContext&) {
      if (unit == 7) throw std::runtime_error("unit 7 failed");
    });
    FAIL() << "expected SweepUnitError";
  } catch (const sim::SweepUnitError& e) {
    EXPECT_EQ(e.unit(), 7u);
    EXPECT_LT(e.worker(), 2u);
    EXPECT_NE(std::string(e.what()).find("sweep unit 7 failed on worker"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unit 7 failed"), std::string::npos);
    // The original exception rides along as the nested exception.
    bool nested_seen = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::runtime_error& inner) {
      nested_seen = true;
      EXPECT_STREQ(inner.what(), "unit 7 failed");
    }
    EXPECT_TRUE(nested_seen);
  }
  // The pool must survive a failed job.
  std::atomic<std::size_t> ran{0};
  executor.run(4, [&](std::size_t, WorkerContext&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 4u);
}

TEST(SweepExecutorTest, ReentrantRunIsRejectedNotCorrupted) {
  // run() admits one caller at a time; a unit function calling back into
  // run() must surface the rejection (via the job's error channel, wrapped
  // with unit context like any other unit failure), not silently re-shard
  // the in-flight job.
  SweepExecutor executor(2);
  try {
    executor.run(4, [&](std::size_t, WorkerContext&) {
      executor.run(1, [](std::size_t, WorkerContext&) {});
    });
    FAIL() << "expected SweepUnitError";
  } catch (const sim::SweepUnitError& e) {
    EXPECT_NE(std::string(e.what()).find("already driving a job"),
              std::string::npos);
    // The inner std::logic_error is preserved as the nested exception.
    EXPECT_THROW(std::rethrow_if_nested(e), std::logic_error);
  }
  // The pool stays usable afterwards.
  std::atomic<std::size_t> ran{0};
  executor.run(3, [&](std::size_t, WorkerContext&) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 3u);
}

TEST(ParseCountArgTest, StrictDecimalWithBound) {
  std::size_t out = 99;
  EXPECT_TRUE(sim::parse_count_arg("0", 10, out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(sim::parse_count_arg("10", 10, out));
  EXPECT_EQ(out, 10u);
  EXPECT_FALSE(sim::parse_count_arg("11", 10, out));    // above bound
  EXPECT_FALSE(sim::parse_count_arg("-1", 10, out));    // sign
  EXPECT_FALSE(sim::parse_count_arg("+5", 10, out));    // sign
  EXPECT_FALSE(sim::parse_count_arg("4x", 10, out));    // suffix
  EXPECT_FALSE(sim::parse_count_arg("x4", 10, out));    // prefix
  EXPECT_FALSE(sim::parse_count_arg("", 10, out));      // empty
  EXPECT_FALSE(sim::parse_count_arg(nullptr, 10, out)); // absent
}

TEST(SweepExecutorTest, RngStreamsDependOnUnitNotThreadCount) {
  constexpr std::size_t kUnits = 32;
  constexpr std::uint64_t kSeed = 0xABCDEF;

  const auto draws_with = [&](std::size_t threads) {
    SweepExecutor executor(threads);
    std::vector<double> first_draw(kUnits);
    executor.run(
        kUnits,
        [&](std::size_t unit, WorkerContext& ctx) {
          first_draw[unit] = ctx.rng().unit();
        },
        kSeed);
    return first_draw;
  };

  const auto serial = draws_with(1);
  EXPECT_EQ(serial, draws_with(3));
  EXPECT_EQ(serial, draws_with(8));
  // And the streams really are distinct per unit.
  EXPECT_NE(serial[0], serial[1]);
}

// ---------------------------------------------------------------------------
// Sweep determinism against the serial route_batch path

/// The six protocols of the library's comparison set.
std::vector<analysis::NamedFactory> six_protocols(const analysis::ProtocolSuite& suite) {
  return {suite.reconvergence(), suite.fcp(), suite.pr(),
          suite.pr_single_bit(), suite.lfa(), suite.lfa_node_protecting()};
}

/// Every field equal, stretch samples as exact doubles in serial order: the
/// canonical-order merge is exact by construction.
void expect_identical_stretch(const analysis::StretchExperimentResult& serial,
                              const analysis::StretchExperimentResult& parallel,
                              std::size_t threads) {
  ASSERT_EQ(parallel.protocols.size(), serial.protocols.size());
  for (std::size_t i = 0; i < serial.protocols.size(); ++i) {
    EXPECT_TRUE(parallel.protocols[i] == serial.protocols[i])
        << serial.protocols[i].name << " @ " << threads << " threads";
  }
  EXPECT_TRUE(parallel == serial) << threads << " threads";
}

TEST(ParallelSweepDeterminismTest, MatchesSerialOnRandomTopologies) {
  for (const std::uint64_t topo_seed : {1ULL, 2ULL, 3ULL}) {
    graph::Rng rng(topo_seed);
    const graph::Graph g = graph::random_two_edge_connected(10, 6, rng);
    const analysis::ProtocolSuite suite(g);
    const auto protocols = six_protocols(suite);

    // Random failure sets WITHOUT a connectivity filter: partitions must
    // classify identically too.
    auto scenarios = net::sample_any_failures(g, 2, 10, rng);
    for (auto& s : net::all_single_failures(g)) scenarios.push_back(std::move(s));

    const auto serial = analysis::run_stretch_experiment(g, scenarios, protocols);
    for (const std::size_t threads : {1U, 2U, 8U}) {
      SweepExecutor executor(threads);
      expect_identical_stretch(
          serial, analysis::run_stretch_experiment(g, scenarios, protocols, executor),
          threads);
    }
  }
}

TEST(ParallelSweepDeterminismTest, AbileneAllSingleFailures) {
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto protocols = six_protocols(suite);
  const auto scenarios = net::all_single_failures(g);

  const auto serial = analysis::run_stretch_experiment(g, scenarios, protocols);
  for (const std::size_t threads : {1U, 2U, 8U}) {
    SweepExecutor executor(threads);
    expect_identical_stretch(
        serial, analysis::run_stretch_experiment(g, scenarios, protocols, executor),
        threads);
  }
}

TEST(ParallelSweepDeterminismTest, ScenarioRoutingCacheKeepsSweepsBitIdentical) {
  // The per-worker ScenarioRoutingCache hands reconverging protocols
  // delta-repaired tables whose content depends only on the failure set --
  // never on which worker ran the unit or what it processed before.  A
  // reconvergence-heavy protocol list over a scenario mix with partitions
  // must therefore stay bit-identical to the serial sweep at any thread
  // count.
  graph::Rng rng(0x5CA1E);
  const graph::Graph g = graph::random_two_edge_connected(12, 7, rng);
  const analysis::ProtocolSuite suite(g);
  // Two cache users per scenario (reconvergence twice) plus PR: exercises the
  // same-failure-set fast path inside one unit as well.
  const std::vector<analysis::NamedFactory> protocols = {
      suite.reconvergence(), suite.pr(), suite.reconvergence()};

  auto scenarios = net::all_single_failures(g);
  for (auto& s : net::sample_any_failures(g, 3, 12, rng)) {
    scenarios.push_back(std::move(s));
  }

  const auto serial = analysis::run_stretch_experiment(g, scenarios, protocols);
  for (const std::size_t threads : {1U, 2U, 8U}) {
    SweepExecutor executor(threads);
    expect_identical_stretch(
        serial, analysis::run_stretch_experiment(g, scenarios, protocols, executor),
        threads);
  }
}

// ---------------------------------------------------------------------------
// ProtocolStretch::coverage() pinned semantics (regression)

TEST(ProtocolStretchTest, CoverageCornerSemanticsPinned) {
  const auto make = [](std::size_t delivered, std::size_t reachable,
                       std::size_t partitioned) {
    return analysis::ProtocolStretch{"t", {}, delivered, reachable, partitioned};
  };

  // A genuinely empty sweep (nothing routed) is vacuously covered.
  EXPECT_DOUBLE_EQ(make(0, 0, 0).coverage(), 1.0);
  // Traffic existed but every packet hit a partition: NOT the vacuous 1.0 --
  // nothing was delivered, so coverage is 0, and never NaN.
  EXPECT_DOUBLE_EQ(make(0, 0, 5).coverage(), 0.0);
  EXPECT_FALSE(std::isnan(make(0, 0, 5).coverage()));
  // Every recoverable packet dropped: zero coverage.
  EXPECT_DOUBLE_EQ(make(0, 4, 0).coverage(), 0.0);
  EXPECT_DOUBLE_EQ(make(0, 4, 3).coverage(), 0.0);
  // Ordinary mixtures: delivered / (delivered + dropped_reachable).
  EXPECT_DOUBLE_EQ(make(3, 1, 2).coverage(), 0.75);
  EXPECT_DOUBLE_EQ(make(4, 0, 0).coverage(), 1.0);
  EXPECT_DOUBLE_EQ(make(4, 0, 9).coverage(), 1.0);
  // Both drop classes count as dropped; total() is every routed packet.
  EXPECT_EQ(make(3, 1, 2).dropped(), 3u);
  EXPECT_EQ(make(3, 1, 2).total(), 6u);
}

}  // namespace
}  // namespace pr
