// Checkpoint/resume contract of run_storm_experiment_resilient: a storm
// sweep interrupted by ANY stop cause -- budget, deadline, cancel, injected
// worker exception, malformed scenario -- and resumed from its checkpoint
// blob (possibly in a different executor, at a different thread count, over
// several hops) must finish to reducer outputs BIT-IDENTICAL to an
// uninterrupted run.  Also covers the checkpoint codec's rejection paths:
// tampered, truncated and mismatched-config blobs all throw CheckpointError
// instead of resuming into silently wrong state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
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

/// Field-by-field bit-identity over every reducer output.
void expect_identical(const StormExperimentResult& want,
                      const StormExperimentResult& got) {
  EXPECT_EQ(got.scenarios, want.scenarios);
  EXPECT_EQ(got.flows_per_scenario, want.flows_per_scenario);
  EXPECT_EQ(got.offered_pps, want.offered_pps);
  EXPECT_EQ(got.calm_scenarios, want.calm_scenarios);
  EXPECT_EQ(got.disconnected_scenarios, want.disconnected_scenarios);
  EXPECT_TRUE(got.failed_groups == want.failed_groups);
  EXPECT_TRUE(got.failed_edges == want.failed_edges);
  ASSERT_EQ(got.protocols.size(), want.protocols.size());
  for (std::size_t i = 0; i < want.protocols.size(); ++i) {
    const auto& a = want.protocols[i];
    const auto& b = got.protocols[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_TRUE(a.utilization == b.utilization) << a.name;
    EXPECT_TRUE(a.stretch == b.stretch) << a.name;
    EXPECT_EQ(a.quantiles, b.quantiles) << a.name;
    EXPECT_EQ(a.utilization_quantiles, b.utilization_quantiles) << a.name;
    EXPECT_EQ(a.stretch_quantiles, b.stretch_quantiles) << a.name;
    EXPECT_EQ(a.delivered_pps, b.delivered_pps) << a.name;
    EXPECT_EQ(a.lost_pps, b.lost_pps) << a.name;
    EXPECT_EQ(a.stranded_pps, b.stranded_pps) << a.name;
    EXPECT_EQ(a.overloaded_links, b.overloaded_links) << a.name;
    EXPECT_EQ(a.overloaded_scenarios, b.overloaded_scenarios) << a.name;
    EXPECT_EQ(a.lossy_scenarios, b.lossy_scenarios) << a.name;
    EXPECT_EQ(a.rerouted_flows, b.rerouted_flows) << a.name;
    ASSERT_EQ(a.worst.size(), b.worst.size()) << a.name;
    for (std::size_t k = 0; k < a.worst.size(); ++k) {
      EXPECT_EQ(a.worst[k].key, b.worst[k].key) << a.name;
      EXPECT_EQ(a.worst[k].id, b.worst[k].id) << a.name;
      EXPECT_EQ(a.worst[k].value.max_utilization,
                b.worst[k].value.max_utilization)
          << a.name;
      EXPECT_EQ(a.worst[k].value.max_stretch, b.worst[k].value.max_stretch)
          << a.name;
      EXPECT_EQ(a.worst[k].value.lost_pps, b.worst[k].value.lost_pps) << a.name;
      EXPECT_EQ(a.worst[k].value.stranded_pps, b.worst[k].value.stranded_pps)
          << a.name;
      EXPECT_EQ(a.worst[k].value.failed_groups, b.worst[k].value.failed_groups)
          << a.name;
      EXPECT_EQ(a.worst[k].value.failed_edges, b.worst[k].value.failed_edges)
          << a.name;
    }
  }
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

TEST(StormResume, RejectsCorruptAndMismatchedBlobs) {
  ResumeFixture f;
  std::string blob;
  {
    SweepExecutor executor(2);
    RunControl control;
    control.set_unit_budget(80);
    StormRunOptions options;
    options.control = &control;
    blob = f.run(executor, options).checkpoint;
    ASSERT_FALSE(blob.empty());
  }
  SweepExecutor executor(2);
  RunControl control;
  StormRunOptions options;
  options.control = &control;

  {  // flipped byte in the middle -> checksum failure
    std::string tampered = blob;
    tampered[tampered.size() / 2] ^= 0x40;
    options.resume_from = tampered;
    EXPECT_THROW((void)f.run(executor, options), CheckpointError);
  }
  {  // truncated blob
    options.resume_from = std::string_view(blob).substr(0, blob.size() - 9);
    EXPECT_THROW((void)f.run(executor, options), CheckpointError);
  }
  {  // not a checkpoint at all
    options.resume_from = "definitely not a checkpoint";
    EXPECT_THROW((void)f.run(executor, options), CheckpointError);
  }
  {  // wrong experiment: different seed
    ResumeFixture other;
    other.config.seed = 78;
    SweepExecutor ex(2);
    RunControl ctl;
    StormRunOptions opt;
    opt.control = &ctl;
    opt.resume_from = blob;
    EXPECT_THROW((void)other.run(ex, opt), CheckpointError);
  }
  {  // wrong experiment: different protocol list
    ResumeFixture other;
    other.protocols = {other.suite.spf()};
    SweepExecutor ex(2);
    RunControl ctl;
    StormRunOptions opt;
    opt.control = &ctl;
    opt.resume_from = blob;
    EXPECT_THROW((void)other.run(ex, opt), CheckpointError);
  }
  {  // wrong experiment: different scenario target
    ResumeFixture other;
    other.config.scenarios = 400;
    SweepExecutor ex(2);
    RunControl ctl;
    StormRunOptions opt;
    opt.control = &ctl;
    opt.resume_from = blob;
    EXPECT_THROW((void)other.run(ex, opt), CheckpointError);
  }

  // The pristine blob still works after all the rejected attempts.
  options.resume_from = blob;
  const StormRunResult finished = f.run(executor, options);
  EXPECT_TRUE(finished.complete());
  expect_identical(f.reference(), finished.result);
}

}  // namespace
}  // namespace pr
