// Million-scenario storm sweeps: sampled correlated-failure Monte Carlo with
// flat-memory streaming reduction.
//
// The traffic sweeps in analysis/traffic.hpp keep one metrics row per
// scenario -- right for hundreds of enumerated failure sets, fatal for the
// sampled storms a net::StormModel can produce forever.  This driver streams
// instead: scenarios are drawn on the fly from per-unit split-seed RNG
// streams, each is probed through the SRLG-grained traffic::GroupIncidence
// and priced by the traffic driver's incremental cell (analysis::evaluate_cell,
// whose max stretch divides by the pristine pass's path costs), and
// everything folds into O(1) reducer state -- P^2 quantile markers, running
// sums, a bounded top-K worst-scenario heap -- through the executor's
// ordered reduce, whose canonical order makes every reducer bit-identical at
// any thread count.  A 10^6-scenario sweep holds one slot ring of executor
// window size, per-worker scratch, and the reducers; nothing grows with the
// scenario count.
//
// Sampled estimates are validated against run_exhaustive_storm(), which
// enumerates all 2^G group subsets of an IndependentOutages model with their
// exact probabilities (net::enumerate_outage_scenarios) and computes exact
// probability-weighted means and quantiles: sampled values must converge to
// the oracle's as the scenario count grows (law of large numbers, NOT
// bit-identity -- bit-identity holds across thread counts of one sampled
// sweep, convergence across estimators).
//
// Resilience: run_storm_experiment_resilient runs the same sweep under a
// sim::RunControl -- deadline, cancel, scenario budget, fault plan -- through
// the executor's one controlled entry point, and instead of all-or-nothing
// returns the canonical prefix it completed plus a versioned checkpoint blob.
// Feeding that blob back via StormRunOptions::resume_from continues the sweep
// in a later call (or a later process) to results BIT-IDENTICAL to an
// uninterrupted run: the executor's deterministic truncation contract means
// the interrupted state is a clean prefix [0, k), split-seed RNG streams are
// stateless per scenario, and every reducer serializes its exact state
// (analysis/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/reducers.hpp"
#include "analysis/stretch.hpp"
#include "net/storm_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"

namespace pr::analysis {

struct StormSweepConfig {
  std::size_t scenarios = 0;     ///< sampled scenario count (> 0)
  std::uint64_t seed = 0;        ///< roots the per-scenario RNG streams
  std::size_t top_k = 10;        ///< worst-scenario table size per protocol
  /// Quantiles tracked for the per-scenario max-utilization and max-stretch
  /// streams; each must lie in (0, 1).
  std::vector<double> quantiles{0.5, 0.9, 0.99};
};

/// What made a scenario bad enough for the top-K table.
struct StormScenarioRecord {
  double max_utilization = 0.0;
  double max_stretch = 1.0;  ///< worst delivered affected-flow stretch
  double lost_pps = 0.0;
  double stranded_pps = 0.0;
  std::vector<std::size_t> failed_groups;  ///< ascending
  std::size_t failed_edges = 0;            ///< size of the group union

  friend bool operator==(const StormScenarioRecord&, const StormScenarioRecord&) = default;
};

/// One protocol's streamed outcome over the whole storm.
struct StormProtocolResult {
  std::string name;

  /// Per-scenario max link utilization stream (count == scenarios).
  RunningSummary utilization;
  /// Per-scenario worst stretch among delivered affected flows (1.0 for calm
  /// scenarios and scenarios whose affected flows all dropped).
  RunningSummary stretch;

  /// config.quantiles and the matching P^2 estimates over the two streams.
  std::vector<double> quantiles;
  std::vector<double> utilization_quantiles;
  std::vector<double> stretch_quantiles;

  /// Volume sums over all scenarios, accumulated in canonical scenario order.
  double delivered_pps = 0.0;
  double lost_pps = 0.0;
  double stranded_pps = 0.0;

  std::size_t overloaded_links = 0;      ///< summed over scenarios
  std::size_t overloaded_scenarios = 0;  ///< scenarios with >= 1 overload
  std::size_t lossy_scenarios = 0;       ///< scenarios with lost_pps > 0
  std::size_t rerouted_flows = 0;        ///< affected flows actually re-routed

  /// Worst scenarios by max utilization (ties: earliest scenario id), key
  /// descending.  Entry::id is the scenario index, Entry::value the record.
  std::vector<TopK<StormScenarioRecord>::Entry> worst;

  /// Fraction of offered demand delivered across the sweep.
  [[nodiscard]] double delivered_fraction(double offered_pps,
                                          std::size_t scenarios) const {
    const double total = offered_pps * static_cast<double>(scenarios);
    return total == 0.0 ? 0.0 : delivered_pps / total;
  }

  friend bool operator==(const StormProtocolResult&, const StormProtocolResult&) = default;
};

struct StormExperimentResult {
  std::vector<StormProtocolResult> protocols;
  std::size_t scenarios = 0;
  std::size_t flows_per_scenario = 0;
  double offered_pps = 0.0;  ///< per scenario (every scenario offers the matrix)

  /// Scenario-shape streams (protocol-independent): failed-group and
  /// failed-edge counts per scenario, plus how many scenarios were calm
  /// (no failed group) or partitioned the graph.
  RunningSummary failed_groups;
  RunningSummary failed_edges;
  std::size_t calm_scenarios = 0;
  std::size_t disconnected_scenarios = 0;

  friend bool operator==(const StormExperimentResult&,
                         const StormExperimentResult&) = default;
};

/// Samples config.scenarios scenarios from `model`, prices each against
/// `plan` under every protocol, and streams everything into the result's
/// reducers via the ordered reduce.  Scenario i is drawn from RNG stream
/// split_seed(config.seed, i), evaluated incrementally (pristine replay +
/// GroupIncidence-probed re-route), and reduced in canonical order: the
/// result is bit-identical for every executor thread count.  Memory is flat
/// in the scenario count.  Throws std::invalid_argument on empty protocol
/// lists, zero scenarios, mismatched matrix/plan sizes, or quantiles outside
/// (0, 1).
[[nodiscard]] StormExperimentResult run_storm_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, const net::StormModel& model,
    const std::vector<NamedFactory>& protocols, const StormSweepConfig& config,
    sim::SweepExecutor& executor);

/// Knobs for a resilient storm run.
struct StormRunOptions {
  /// Stop signals + error policy + fault plan for the sweep; nullptr runs
  /// uncontrolled (to completion, a failed scenario rethrown through
  /// sim::throw_if_failed like run_storm_experiment).
  const sim::RunControl* control = nullptr;
  /// A checkpoint blob from a previous StormRunResult to resume from; empty
  /// starts fresh.  The blob must match this experiment exactly (same seed,
  /// scenario target, top_k, quantiles, protocol names, demand shape) --
  /// any mismatch or corruption throws CheckpointError.
  std::string_view resume_from{};
  /// Periodic auto-checkpointing during the sweep (sim::AutoCheckpoint under
  /// the hood): when `persist_checkpoint` is set and the cadence is active,
  /// the thread that called the driver seals the reducer prefix [0, k) on
  /// cadence while the pool runs, and hands `persist_checkpoint` the
  /// ABSOLUTE scenario cursor (resume offset included) plus the sealed blob
  /// -- typically forwarded straight to a CheckpointStore.  Requires `control` (throws std::invalid_argument
  /// otherwise: auto-checkpointing an uncontrolled run is a config bug).
  /// Durability only; results are bit-identical with or without it.
  sim::CheckpointCadence checkpoint_cadence{};
  std::function<void(std::size_t completed_scenarios, std::string&& blob)>
      persist_checkpoint;
};

/// Outcome of a resilient storm run: the (possibly partial) experiment
/// result over the first `completed_scenarios` scenarios, the executor's
/// stop report, and a checkpoint blob that resumes the sweep from exactly
/// here.  result.scenarios == completed_scenarios; every reducer holds the
/// canonical prefix [0, completed_scenarios) of the scenario stream, minus
/// the failed scenarios under UnitErrorPolicy::kContinue, which feed no
/// reducer.  Partial results are themselves bit-identical to a smaller run.
struct StormRunResult {
  StormExperimentResult result;
  sim::SweepOutcome outcome;
  /// Absolute scenario cursor (includes scenarios done before a resume).
  std::size_t completed_scenarios = 0;
  bool resumed = false;  ///< this run started from options.resume_from
  /// Sealed checkpoint at completed_scenarios; empty when serialization
  /// failed (see checkpoint_error) -- in-memory results are still valid.
  std::string checkpoint;
  std::string checkpoint_error;

  [[nodiscard]] bool complete() const noexcept {
    return outcome.stop_reason == sim::StopReason::kCompleted;
  }
};

/// run_storm_experiment under a RunControl, with checkpoint/resume.  The
/// sweep stops cooperatively at scenario boundaries on cancel/deadline/
/// budget and contains per-scenario failures per the control's error policy;
/// whatever the stop cause, the returned reducers cover exactly
/// [0, completed_scenarios), less any scenario that failed under
/// UnitErrorPolicy::kContinue, and resuming from the checkpoint -- at ANY
/// thread count -- finishes to results bit-identical to an uninterrupted
/// run.  Scenario draws are validated against the model's group catalog
/// (malformed samples are contained as unit errors, never dereferenced).
[[nodiscard]] StormRunResult run_storm_experiment_resilient(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, const net::StormModel& model,
    const std::vector<NamedFactory>& protocols, const StormSweepConfig& config,
    sim::SweepExecutor& executor, const StormRunOptions& options = {});

/// One protocol's exact expectation under an enumerable outage model.
struct StormOracleProtocol {
  std::string name;
  double mean_max_utilization = 0.0;
  double mean_max_stretch = 0.0;
  /// Exact probability-weighted quantiles of the two per-scenario metrics
  /// (smallest value whose cumulative probability reaches q).
  std::vector<double> utilization_quantiles;
  std::vector<double> stretch_quantiles;
  double expected_delivered_pps = 0.0;  ///< per scenario
  double expected_lost_pps = 0.0;
  double expected_stranded_pps = 0.0;
  double overload_probability = 0.0;  ///< P(>= 1 overloaded link)
  double loss_probability = 0.0;      ///< P(lost_pps > 0)
};

struct StormOracleResult {
  std::vector<StormOracleProtocol> protocols;
  std::size_t scenarios = 0;        ///< 2^G enumerated subsets
  double total_probability = 0.0;   ///< sums to 1 up to rounding
};

/// The exhaustive oracle: enumerates every group subset of `model` with its
/// exact probability and computes exact weighted means, quantiles and
/// volume expectations per protocol.  Gated to <= 20 groups (the
/// enumeration's own limit).  Each subset is evaluated by the same cell the
/// sampled sweep uses, so sampled estimates converge to these values.
[[nodiscard]] StormOracleResult run_exhaustive_storm(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, const net::IndependentOutages& model,
    const std::vector<NamedFactory>& protocols,
    const std::vector<double>& quantiles = {0.5, 0.9, 0.99});

}  // namespace pr::analysis
