// Checkpoint/resume contract of run_storm_experiment_resilient: a storm
// sweep interrupted by ANY stop cause -- budget, deadline, cancel, injected
// worker exception, malformed scenario -- and resumed from its checkpoint
// blob (possibly in a different executor, at a different thread count, over
// several hops) must finish to reducer outputs BIT-IDENTICAL to an
// uninterrupted run.  Also covers the checkpoint codec's rejection paths:
// tampered, truncated, mismatched-config and out-of-bounds blobs all throw
// CheckpointError instead of resuming into silently wrong state, and an
// independent decoder pins the version-1 layout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/checkpoint.hpp"
#include "analysis/protocols.hpp"
#include "analysis/storm.hpp"
#include "analysis/traffic.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"
#include "net/network.hpp"
#include "net/storm_model.hpp"
#include "sim/fault_plan.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/run_control.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"

namespace pr {
namespace {

using analysis::CheckpointError;
using analysis::StormExperimentResult;
using analysis::StormRunOptions;
using analysis::StormRunResult;
using analysis::StormSweepConfig;
using graph::Graph;
using net::IndependentOutages;
using net::SrlgCatalog;
using sim::FaultPlan;
using sim::RunControl;
using sim::StopReason;
using sim::SweepExecutor;

struct ResumeFixture {
  Graph g = topo::abilene();
  analysis::ProtocolSuite suite{g};
  traffic::TrafficMatrix demand =
      traffic::gravity_demand(g, 1e5, traffic::GravityMass::kDegree);
  traffic::CapacityPlan plan = traffic::CapacityPlan::uniform(g, 5e4);
  graph::Rng catalog_rng{4};
  SrlgCatalog catalog = net::random_srlgs(g, 6, 3, catalog_rng);
  IndependentOutages model = IndependentOutages::uniform(catalog, 0.2);
  std::vector<analysis::NamedFactory> protocols = {suite.spf(),
                                                   suite.reconvergence()};
  StormSweepConfig config = [] {
    StormSweepConfig c;
    c.scenarios = 300;
    c.seed = 77;
    c.top_k = 5;
    return c;
  }();

  /// The uninterrupted reference every interrupted-then-resumed run must
  /// reproduce bit-for-bit.
  [[nodiscard]] StormExperimentResult reference() {
    SweepExecutor serial(1);
    return analysis::run_storm_experiment(g, demand, plan, model, protocols,
                                          config, serial);
  }

  [[nodiscard]] StormRunResult run(SweepExecutor& executor,
                                   const StormRunOptions& options = {}) {
    return analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, options);
  }
};

/// Bit-identity over every result field; a diverging protocol is named.
void expect_identical(const StormExperimentResult& want,
                      const StormExperimentResult& got) {
  ASSERT_EQ(got.protocols.size(), want.protocols.size());
  for (std::size_t i = 0; i < want.protocols.size(); ++i) {
    EXPECT_TRUE(got.protocols[i] == want.protocols[i]) << want.protocols[i].name;
  }
  EXPECT_TRUE(got == want);
}

/// Resumes `blob` to completion (no further interruption) and checks the
/// final result against the uninterrupted reference.
void resume_and_verify(ResumeFixture& f, const std::string& blob,
                       const StormExperimentResult& want,
                       std::size_t threads = 2) {
  SweepExecutor executor(threads);
  RunControl control;  // unconstrained: runs the remainder to completion
  StormRunOptions options;
  options.control = &control;
  options.resume_from = blob;
  const StormRunResult finished = f.run(executor, options);
  EXPECT_TRUE(finished.resumed);
  EXPECT_TRUE(finished.complete());
  EXPECT_EQ(finished.completed_scenarios, f.config.scenarios);
  expect_identical(want, finished.result);
}

TEST(StormResume, ResilientUncontrolledMatchesLegacy) {
  ResumeFixture f;
  const StormExperimentResult want = f.reference();
  SweepExecutor executor(4);
  const StormRunResult run = f.run(executor);
  EXPECT_TRUE(run.complete());
  EXPECT_FALSE(run.resumed);
  EXPECT_EQ(run.completed_scenarios, f.config.scenarios);
  EXPECT_FALSE(run.checkpoint.empty());
  EXPECT_TRUE(run.checkpoint_error.empty());
  expect_identical(want, run.result);
}

TEST(StormResume, BudgetInterruptThenResumeIsBitIdentical) {
  ResumeFixture f;
  const StormExperimentResult want = f.reference();
  // Interrupt at assorted cut points x thread counts, resume at a DIFFERENT
  // thread count: the checkpoint must not remember how it was produced.
  const std::size_t splits[] = {1, 37, 150, 299};
  const std::size_t threads[] = {1, 2, 8};
  for (const std::size_t split : splits) {
    for (std::size_t t = 0; t < 3; ++t) {
      SweepExecutor executor(threads[t]);
      RunControl control;
      control.set_unit_budget(split);
      StormRunOptions options;
      options.control = &control;
      const StormRunResult partial = f.run(executor, options);
      EXPECT_EQ(partial.outcome.stop_reason, StopReason::kBudget);
      EXPECT_EQ(partial.completed_scenarios, split);
      EXPECT_EQ(partial.result.scenarios, split);
      ASSERT_FALSE(partial.checkpoint.empty());
      resume_and_verify(f, partial.checkpoint, want,
                        /*threads=*/threads[(t + 1) % 3]);
    }
  }
}

TEST(StormResume, PartialResultIsItselfACleanPrefix) {
  // An interrupted run's in-memory reducers must equal a run whose TARGET was
  // the cut point: partial results are usable, not just resumable.
  ResumeFixture f;
  SweepExecutor executor(4);
  RunControl control;
  control.set_unit_budget(120);
  StormRunOptions options;
  options.control = &control;
  const StormRunResult partial = f.run(executor, options);
  ASSERT_EQ(partial.completed_scenarios, 120u);

  ResumeFixture small;
  small.config.scenarios = 120;
  expect_identical(small.reference(), partial.result);
}

TEST(StormResume, MultiStageResumeChain) {
  // 300 scenarios in budget-50 hops: six checkpoints, each feeding the next
  // process; the final reducers match the one-shot run exactly.
  ResumeFixture f;
  const StormExperimentResult want = f.reference();
  std::string blob;
  std::size_t done = 0;
  std::size_t hops = 0;
  StormRunResult last;
  while (done < f.config.scenarios) {
    SweepExecutor executor(1 + hops % 3);  // vary the thread count per hop
    RunControl control;
    control.set_unit_budget(50);
    StormRunOptions options;
    options.control = &control;
    options.resume_from = blob;
    last = f.run(executor, options);
    EXPECT_EQ(last.resumed, !blob.empty());
    ASSERT_FALSE(last.checkpoint.empty());
    ASSERT_GT(last.completed_scenarios, done) << "chain must make progress";
    done = last.completed_scenarios;
    blob = last.checkpoint;
    ++hops;
  }
  EXPECT_EQ(hops, 6u);
  EXPECT_TRUE(last.complete());
  expect_identical(want, last.result);
}

TEST(StormResume, InjectedWorkerExceptionThenResume) {
  ResumeFixture f;
  const StormExperimentResult want = f.reference();
  SweepExecutor executor(4);
  RunControl control;
  FaultPlan faults;
  faults.throw_in_unit(120);
  control.set_fault_plan(&faults);
  StormRunOptions options;
  options.control = &control;
  const StormRunResult partial = f.run(executor, options);
  EXPECT_EQ(partial.outcome.stop_reason, StopReason::kUnitError);
  EXPECT_EQ(partial.completed_scenarios, 120u);
  ASSERT_NE(partial.outcome.first_error(), nullptr);
  EXPECT_EQ(partial.outcome.first_error()->unit, 120u);
  ASSERT_FALSE(partial.checkpoint.empty());
  resume_and_verify(f, partial.checkpoint, want);
}

TEST(StormResume, MalformedScenarioIsContainedAndResumable) {
  ResumeFixture f;
  const StormExperimentResult want = f.reference();
  SweepExecutor executor(2);
  RunControl control;
  FaultPlan faults;
  faults.malformed_scenario(40);
  control.set_fault_plan(&faults);
  StormRunOptions options;
  options.control = &control;
  const StormRunResult partial = f.run(executor, options);
  EXPECT_EQ(partial.outcome.stop_reason, StopReason::kUnitError);
  EXPECT_EQ(partial.completed_scenarios, 40u);
  ASSERT_NE(partial.outcome.first_error(), nullptr);
  EXPECT_NE(partial.outcome.first_error()->what.find("malformed scenario"),
            std::string::npos);
  EXPECT_NE(partial.outcome.first_error()->what.find("out of range"),
            std::string::npos);
  ASSERT_FALSE(partial.checkpoint.empty());
  resume_and_verify(f, partial.checkpoint, want);
}

TEST(StormResume, AFailedCellLeavesLaterScenariosUntouched) {
  // A cell that throws must not leave its scenario's links failed: under
  // kContinue the worker goes on claiming units, which would then be priced
  // under a superset of their own failures.  Here a protocol refuses
  // networks with >= 6 links down.  Exactly those scenarios fail, and spf's
  // volume sums equal the full re-route oracle folded over the others, at
  // every thread count.
  ResumeFixture f;
  const SrlgCatalog catalog = net::geographic_srlgs(f.g, 1);
  const IndependentOutages model = IndependentOutages::uniform(catalog, 0.15);
  StormSweepConfig config;
  config.scenarios = 300;
  config.seed = 0x5EED;
  constexpr std::size_t kRefusedFrom = 6;
  const std::vector<analysis::NamedFactory> protocols = {
      f.suite.spf(),
      {"refuses-storms", [&f](const net::Network& network) {
         if (network.failure_count() >= kRefusedFrom) {
           throw std::runtime_error("refuses-storms: too many links down");
         }
         return f.suite.spf().make(network);
       }}};

  std::vector<graph::EdgeSet> kept;
  std::size_t refused = 0;
  net::StormSample sample;
  for (std::size_t i = 0; i < config.scenarios; ++i) {
    graph::Rng rng(sim::split_seed(config.seed, i));
    model.sample(rng, sample);
    if (sample.failures.size() >= kRefusedFrom) {
      ++refused;
    } else {
      kept.push_back(sample.failures);
    }
  }
  ASSERT_GT(refused, 0u);
  const auto oracle =
      analysis::run_traffic_experiment(f.g, f.demand, f.plan, kept, {f.suite.spf()},
                                       analysis::TrafficSweepMode::kFullReroute);
  double delivered = 0.0;
  double lost = 0.0;
  double stranded = 0.0;
  for (const auto& row : oracle.protocols[0].per_scenario) {
    delivered += row.delivered_pps;
    lost += row.lost_pps;
    stranded += row.stranded_pps;
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;
    control.set_error_policy(sim::UnitErrorPolicy::kContinue);
    StormRunOptions options;
    options.control = &control;
    const StormRunResult run = analysis::run_storm_experiment_resilient(
        f.g, f.demand, f.plan, model, protocols, config, executor, options);
    EXPECT_EQ(run.completed_scenarios, config.scenarios) << threads << " threads";
    EXPECT_EQ(run.outcome.error_count, refused) << threads << " threads";
    const auto& spf = run.result.protocols[0];
    EXPECT_EQ(spf.delivered_pps, delivered) << threads << " threads";
    EXPECT_EQ(spf.lost_pps, lost) << threads << " threads";
    EXPECT_EQ(spf.stranded_pps, stranded) << threads << " threads";
  }
}

TEST(StormResume, DeadlineInterruptThenResume) {
  ResumeFixture f;
  const StormExperimentResult want = f.reference();
  SweepExecutor executor(2);
  RunControl control;
  control.set_timeout(std::chrono::milliseconds(2));
  StormRunOptions options;
  options.control = &control;
  const StormRunResult partial = f.run(executor, options);
  ASSERT_FALSE(partial.checkpoint.empty());
  if (partial.complete()) {
    // The machine outran the deadline; the contract below is vacuous but the
    // result must still be right.
    expect_identical(want, partial.result);
    return;
  }
  EXPECT_EQ(partial.outcome.stop_reason, StopReason::kDeadline);
  EXPECT_LT(partial.completed_scenarios, f.config.scenarios);
  resume_and_verify(f, partial.checkpoint, want);
}

TEST(StormResume, CancelFromAnotherThreadThenResume) {
  ResumeFixture f;
  const StormExperimentResult want = f.reference();
  SweepExecutor executor(2);
  RunControl control;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    control.cancel();
  });
  StormRunOptions options;
  options.control = &control;
  const StormRunResult partial = f.run(executor, options);
  canceller.join();
  ASSERT_FALSE(partial.checkpoint.empty());
  if (partial.complete()) {
    expect_identical(want, partial.result);
    return;
  }
  EXPECT_EQ(partial.outcome.stop_reason, StopReason::kCancelled);
  resume_and_verify(f, partial.checkpoint, want);
}

TEST(StormResume, CheckpointBytesEqualAcrossThreadCounts) {
  ResumeFixture f;
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepExecutor executor(threads);
    RunControl control;
    control.set_unit_budget(150);
    StormRunOptions options;
    options.control = &control;
    const StormRunResult partial = f.run(executor, options);
    ASSERT_FALSE(partial.checkpoint.empty());
    if (baseline.empty()) {
      baseline = partial.checkpoint;
    } else {
      EXPECT_EQ(partial.checkpoint, baseline) << threads << " threads";
    }
  }
}

TEST(StormResume, CheckpointFailureKeepsInMemoryResult) {
  ResumeFixture f;
  // A prior good checkpoint to prove older blobs stay resumable.
  std::string earlier;
  {
    SweepExecutor executor(2);
    RunControl control;
    control.set_unit_budget(50);
    StormRunOptions options;
    options.control = &control;
    earlier = f.run(executor, options).checkpoint;
    ASSERT_FALSE(earlier.empty());
  }

  SweepExecutor executor(2);
  RunControl control;
  control.set_unit_budget(100);
  FaultPlan faults;
  faults.fail_at_checkpoint();
  control.set_fault_plan(&faults);
  StormRunOptions options;
  options.control = &control;
  const StormRunResult partial = f.run(executor, options);
  EXPECT_TRUE(partial.checkpoint.empty());
  EXPECT_NE(partial.checkpoint_error.find("injected checkpoint failure"),
            std::string::npos);
  // The sweep itself succeeded: in-memory reducers are the clean 100-prefix.
  EXPECT_EQ(partial.outcome.stop_reason, StopReason::kBudget);
  EXPECT_EQ(partial.completed_scenarios, 100u);
  ResumeFixture small;
  small.config.scenarios = 100;
  expect_identical(small.reference(), partial.result);

  // And the earlier blob still resumes to the full-run answer.
  resume_and_verify(f, earlier, f.reference());
}

/// Resuming `blob` into `fixture` must throw a CheckpointError naming `why`.
void expect_rejected(ResumeFixture& fixture, std::string_view blob,
                     const std::string& why) {
  SweepExecutor executor(2);
  RunControl control;
  StormRunOptions options;
  options.control = &control;
  options.resume_from = blob;
  try {
    (void)fixture.run(executor, options);
    ADD_FAILURE() << "resumed a blob that should fail with '" << why << "'";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

/// Writes `value` little-endian over `bytes` bytes of `blob` at `at`.
void patch(std::string& blob, std::size_t at, std::uint64_t value,
           std::size_t bytes = 8) {
  for (std::size_t i = 0; i < bytes; ++i) {
    blob[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

/// Re-seals an edited blob: its last 8 bytes become the checksum of the rest.
std::string reseal(std::string blob) {
  const std::size_t payload = blob.size() - 8;
  patch(blob, payload,
        analysis::checkpoint_digest(std::string_view(blob).substr(0, payload)));
  return blob;
}

/// The fixture's sweep stopped by a budget after 80 of its 300 scenarios.
StormRunResult interrupted(ResumeFixture& f) {
  SweepExecutor executor(2);
  RunControl control;
  control.set_unit_budget(80);
  StormRunOptions options;
  options.control = &control;
  StormRunResult partial = f.run(executor, options);
  EXPECT_FALSE(partial.checkpoint.empty());
  return partial;
}

TEST(StormResume, RejectsCorruptAndMismatchedBlobs) {
  ResumeFixture f;
  const std::string blob = interrupted(f).checkpoint;

  std::string tampered = blob;
  tampered[tampered.size() / 2] ^= 0x40;
  expect_rejected(f, tampered, "checksum mismatch");
  expect_rejected(f, std::string_view(blob).substr(0, blob.size() - 9), "checksum");
  expect_rejected(f, "definitely not a checkpoint", "bad magic");
  // Version 2 is not this build's layout: 8 magic bytes, then "storm-sweep"
  // as a u64 length and 11 bytes, then the u32 version.
  std::string next_version = blob;
  patch(next_version, 8 + 8 + 11, 2, 4);
  expect_rejected(f, reseal(next_version), "version");
  // Eight bytes past the last field, under a valid checksum.
  expect_rejected(f, reseal(blob + std::string(8, '\0')), "trailing bytes");

  // Every config echo: a blob of another experiment must not resume here.
  const auto rejected_by = [&blob](const std::string& why, const auto& change) {
    ResumeFixture other;
    change(other);
    expect_rejected(other, blob, why);
  };
  rejected_by("seed", [](ResumeFixture& o) { o.config.seed = 78; });
  rejected_by("protocol count",
              [](ResumeFixture& o) { o.protocols = {o.suite.spf()}; });
  rejected_by("scenario target", [](ResumeFixture& o) { o.config.scenarios = 400; });
  rejected_by("top_k", [](ResumeFixture& o) { o.config.top_k = 4; });
  rejected_by("quantile mismatch",
              [](ResumeFixture& o) { o.config.quantiles = {0.5, 0.9, 0.95}; });
  rejected_by("quantile count",
              [](ResumeFixture& o) { o.config.quantiles = {0.5, 0.9}; });
  rejected_by("flow count", [](ResumeFixture& o) { o.demand.set_demand(0, 1, 0.0); });
  rejected_by("offered volume", [](ResumeFixture& o) {
    o.demand = traffic::gravity_demand(o.g, 2e5, traffic::GravityMass::kDegree);
  });

  // The pristine blob still works after all the rejected attempts.
  SweepExecutor executor(2);
  RunControl control;
  StormRunOptions options;
  options.control = &control;
  options.resume_from = blob;
  const StormRunResult finished = f.run(executor, options);
  EXPECT_TRUE(finished.complete());
  expect_identical(f.reference(), finished.result);
}

TEST(StormResume, RejectsAnOversizedFailedGroupList) {
  // A checksum-valid blob whose last top-K record claims more failed groups
  // than any vector can hold: the count must be bounded by the catalog
  // before it sizes anything.
  ResumeFixture f;
  const StormRunResult partial = interrupted(f);
  std::string blob = partial.checkpoint;
  const auto& worst = partial.result.protocols.back().worst;
  ASSERT_FALSE(worst.empty());
  const std::size_t groups = worst.back().value.failed_groups.size();
  // From the end: the checksum, the record's failed_edges, its group ids,
  // then the count.
  const std::size_t at = blob.size() - 8 - 8 - 8 * groups - 8;
  std::string count(8, '\0');
  patch(count, 0, groups);
  ASSERT_EQ(blob.substr(at, 8), count) << "the count is not where the layout puts it";
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  ASSERT_GT(kHuge, std::vector<std::size_t>().max_size());
  patch(blob, at, kHuge);
  expect_rejected(f, reseal(blob), "failed-group count");
}

TEST(StormResume, IndependentDecoderReadsTheVersionOneLayout) {
  // Reads a final checkpoint with a plain CheckpointReader, in the order
  // storm.cpp's schema comment documents, and compares every field with the
  // result of the same run.  The storm code's own walk cannot catch a
  // layout change that it makes on both sides.
  ResumeFixture f;
  f.protocols = {f.suite.spf()};
  f.config.quantiles = {0.9};
  f.config.top_k = 2;
  SweepExecutor executor(2);
  const StormRunResult run = f.run(executor);
  ASSERT_TRUE(run.complete());
  const StormExperimentResult& want = run.result;
  const analysis::StormProtocolResult& p = want.protocols.at(0);
  ASSERT_EQ(p.worst.size(), 2u);

  analysis::CheckpointReader r(run.checkpoint);
  const auto summary = [&r] {
    analysis::RunningSummary s;
    s.count = r.u64();
    s.sum = r.f64();
    s.min = r.f64();
    s.max = r.f64();
    return s;
  };
  const auto p2_estimator = [&r] {
    EXPECT_EQ(r.u64(), 1u);  // estimator count
    analysis::P2State s;
    s.quantile = r.f64();
    s.count = r.u64();
    for (double& x : s.heights) x = r.f64();
    for (double& x : s.positions) x = r.f64();
    for (double& x : s.desired) x = r.f64();
    for (double& x : s.desired_delta) x = r.f64();
    EXPECT_EQ(s.quantile, 0.9);
    return analysis::P2Quantile::from_state(s);
  };
  // Config echo.
  EXPECT_EQ(r.str(), "storm-sweep");
  EXPECT_EQ(r.u32(), 1u);  // version
  EXPECT_EQ(r.u64(), f.config.seed);
  EXPECT_EQ(r.u64(), f.config.scenarios);
  EXPECT_EQ(r.u64(), 2u);  // top_k
  EXPECT_EQ(r.u64(), 1u);  // quantile count
  EXPECT_EQ(r.f64(), 0.9);
  EXPECT_EQ(r.u64(), 1u);  // protocol count
  EXPECT_EQ(r.str(), p.name);
  // Cursor, demand echo and scenario shape.
  EXPECT_EQ(r.u64(), want.scenarios);
  EXPECT_EQ(r.u64(), want.flows_per_scenario);
  EXPECT_EQ(r.f64(), want.offered_pps);
  EXPECT_TRUE(summary() == want.failed_groups);
  EXPECT_TRUE(summary() == want.failed_edges);
  EXPECT_EQ(r.u64(), want.calm_scenarios);
  EXPECT_EQ(r.u64(), want.disconnected_scenarios);
  // The protocol: summaries, volumes, counters, P^2 sets, top-K records.
  EXPECT_TRUE(summary() == p.utilization);
  EXPECT_TRUE(summary() == p.stretch);
  EXPECT_EQ(r.f64(), p.delivered_pps);
  EXPECT_EQ(r.f64(), p.lost_pps);
  EXPECT_EQ(r.f64(), p.stranded_pps);
  EXPECT_EQ(r.u64(), p.overloaded_links);
  EXPECT_EQ(r.u64(), p.overloaded_scenarios);
  EXPECT_EQ(r.u64(), p.lossy_scenarios);
  EXPECT_EQ(r.u64(), p.rerouted_flows);
  const analysis::P2Quantile utilization = p2_estimator();
  EXPECT_EQ(utilization.count(), want.scenarios);
  EXPECT_EQ(utilization.estimate(), p.utilization_quantiles.at(0));
  const analysis::P2Quantile stretch = p2_estimator();
  EXPECT_EQ(stretch.count(), want.scenarios);
  EXPECT_EQ(stretch.estimate(), p.stretch_quantiles.at(0));
  ASSERT_EQ(r.u64(), p.worst.size());
  for (const auto& entry : p.worst) {
    EXPECT_EQ(r.f64(), entry.key);
    EXPECT_EQ(r.u64(), entry.id);
    EXPECT_EQ(r.f64(), entry.value.max_utilization);
    EXPECT_EQ(r.f64(), entry.value.max_stretch);
    EXPECT_EQ(r.f64(), entry.value.lost_pps);
    EXPECT_EQ(r.f64(), entry.value.stranded_pps);
    const std::uint64_t groups = r.u64();
    ASSERT_LE(groups, f.catalog.group_count());
    std::vector<std::size_t> ids(groups);
    for (std::size_t& id : ids) id = r.u64();
    EXPECT_EQ(ids, entry.value.failed_groups);
    EXPECT_EQ(r.u64(), entry.value.failed_edges);
  }
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace pr
