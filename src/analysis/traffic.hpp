// Congestion-under-failure sweeps: the traffic-engineering view of the
// paper's comparison.
//
// The stretch experiment treats every flow as one unweighted probe.
// This driver routes a full demand matrix (every ordered pair with
// non-zero demand) through every failure scenario under every protocol,
// accumulates demand-weighted per-interface load, and prices each scenario
// against a capacity plan: max link utilization, overloaded links, and
// delivered / lost / stranded traffic volume.  Like its siblings it has a
// serial reference path and a SweepExecutor overload that is bit-identical
// to it at every thread count: each scenario is a unit that prices its cells
// into a ring slot, and the executor's ordered reduce folds the slot into
// the result in canonical scenario order.
//
// Two sweep modes share those drivers:
//   * kFullReroute -- the reference oracle: every scenario re-routes every
//     flow from scratch, O(flows) protocol decisions per scenario;
//   * kIncremental (default) -- one pristine routing pass per protocol builds
//     a traffic::FlowIncidenceIndex; each scenario then probes it for the
//     flows whose pristine path crosses a failed edge and hands them to the
//     shared incremental cell (evaluate_cell below), which re-routes ONLY
//     those and replays the cached pristine dart paths for everyone else,
//     interleaved in canonical flow order.  Because the replay performs the
//     exact floating-point addition sequence the full re-route would, the
//     metric rows and merged LoadMaps are bit-identical to kFullReroute at
//     every thread count -- single-link sweeps pay for the affected fraction
//     (typically single-digit percent) instead of all n*(n-1) pairs.
//     Debug builds cross-check every incremental cell against the oracle.
//
// The storm drivers (analysis/storm.hpp) price their scenarios with the same
// cell, pristine-pass builder and input validator, probing per risk group
// instead of per edge -- so a new protocol family needs only a NamedFactory
// for every sweep to price it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/stretch.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/run_control.hpp"
#include "traffic/capacity.hpp"
#include "traffic/congestion.hpp"
#include "traffic/demand.hpp"
#include "traffic/incidence.hpp"
#include "traffic/load_map.hpp"

namespace pr::analysis {

/// How a traffic sweep prices each scenario; both modes produce bit-identical
/// results (the incremental path's replay reproduces the oracle's exact
/// floating-point operation sequence), so the oracle survives as the
/// reference for tests, benches and protocols outside the failure-local
/// contract documented in traffic/incidence.hpp.
enum class TrafficSweepMode : std::uint8_t {
  kFullReroute,  ///< re-route every flow per scenario (reference oracle)
  kIncremental,  ///< pristine-path replay + affected-flow re-route
};

/// One protocol's outcome across the whole sweep.
struct ProtocolTraffic {
  std::string name;
  /// One entry per scenario, in the caller's scenario order.
  std::vector<traffic::CongestionMetrics> per_scenario;
  /// Per-dart load summed over all scenarios in canonical order (where
  /// rerouted demand concentrates across the sweep), plus the scenario count
  /// it covers.
  traffic::LoadMapReduction total_load;
  /// Flows routed through a protocol instance, summed over scenarios: the
  /// affected-flow count in incremental mode, scenarios * flows in full mode.
  std::size_t rerouted_flows = 0;

  [[nodiscard]] traffic::CongestionSummary summary() const {
    return traffic::summarize(per_scenario);
  }

  friend bool operator==(const ProtocolTraffic&, const ProtocolTraffic&) = default;
};

struct TrafficExperimentResult {
  std::vector<ProtocolTraffic> protocols;
  std::size_t scenarios = 0;
  std::size_t flows_per_scenario = 0;  ///< ordered pairs with non-zero demand
  TrafficSweepMode mode = TrafficSweepMode::kIncremental;

  /// Fraction of (scenario, flow) cells `p` actually routed: the per-sweep
  /// affected-flow fraction in incremental mode, 1.0 in full mode.
  [[nodiscard]] double rerouted_fraction(const ProtocolTraffic& p) const {
    const double total =
        static_cast<double>(scenarios) * static_cast<double>(flows_per_scenario);
    return total == 0.0 ? 0.0 : static_cast<double>(p.rerouted_flows) / total;
  }

  /// Every field, mode and re-routed flow counts included: two runs of one
  /// mode compare equal; a full re-route and an incremental run do not.
  friend bool operator==(const TrafficExperimentResult&,
                         const TrafficExperimentResult&) = default;
};

/// The sweep work-list every traffic and storm driver routes: one FlowSpec
/// per ordered pair with non-zero demand, in the canonical (s, t) order, with
/// the matching per-flow demand vector.  Returns the offered volume, the
/// demands summed in that order.  Exposed so capacity-sizing callers (the
/// bench's pristine-load pass) build exactly the list the sweep will route.
double collect_demand_flows(const traffic::TrafficMatrix& demand,
                            std::vector<sim::FlowSpec>& flows,
                            std::vector<double>& demands);

/// Utilization of the busiest pristine shortest-path dart under the
/// baseline capacity plan below.
inline constexpr double kBaselineUtilization = 0.6;

/// The uniform capacity plan every storm and traffic driver sizes against:
/// routes the collect_demand_flows() work-list over the pristine network with
/// `spf` (ProtocolSuite::spf()) and gives every link the capacity at which the
/// busiest dart runs at kBaselineUtilization.  A pure function of the
/// topology and demand, so a resumed sweep rebuilds it bit for bit.
[[nodiscard]] traffic::CapacityPlan baseline_capacity_plan(
    const graph::Graph& g, const traffic::TrafficMatrix& demand, const NamedFactory& spf);

/// Routes the demand matrix through every scenario under every protocol and
/// prices the resulting loads against `plan`.  Scenarios may disconnect the
/// graph: demand whose destination becomes unreachable is accounted as
/// stranded (no scheme can deliver it), demand dropped despite a surviving
/// path as lost.  Serial reference path.  `mode` selects the incremental
/// core or the full-re-route oracle; results are bit-identical either way.
[[nodiscard]] TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols,
    TrafficSweepMode mode = TrafficSweepMode::kIncremental);

/// Parallel sharded variant: scenarios are work units on `executor`, each
/// routed with the worker's reusable batch and incidence buffers
/// (sim::WorkerContext) into a ring slot; the per-protocol incidence indexes
/// are built once, up front, and shared read-only by all workers.  The
/// ordered reduce folds each slot's metrics rows and load maps in canonical
/// scenario order, so results are bit-identical to the serial overload --
/// and across both modes -- for every thread count.  A failed scenario is
/// rethrown via sim::throw_if_failed (sim::SweepUnitError, original nested).
[[nodiscard]] TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    TrafficSweepMode mode = TrafficSweepMode::kIncremental);

/// A resilient traffic run: the (possibly partial) result plus the
/// executor's stop report.  result.scenarios == outcome.completed_units and
/// every per-protocol row/load covers exactly the canonical scenario prefix
/// [0, completed_units) -- bit-identical to running just those scenarios --
/// minus the failed scenarios under UnitErrorPolicy::kContinue, which
/// contribute nothing to any protocol.
struct TrafficRunResult {
  TrafficExperimentResult result;
  sim::SweepOutcome outcome;

  [[nodiscard]] bool complete() const noexcept {
    return outcome.stop_reason == sim::StopReason::kCompleted;
  }
};

/// The executor overload under a sim::RunControl, run through the
/// executor's one controlled entry point: stops cooperatively at scenario
/// boundaries on cancel/deadline/budget, contains per-scenario failures per
/// the control's error policy, and returns the surviving canonical prefix
/// instead of throwing.  Scenario lists are enumerated
/// (unlike sampled storms), so "resume" is simply re-running with the
/// remaining span -- no checkpoint machinery needed here.
[[nodiscard]] TrafficRunResult run_traffic_experiment_resilient(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    const sim::RunControl& control,
    TrafficSweepMode mode = TrafficSweepMode::kIncremental);

// ---------------------------------------------------------------------------
// The sweep cell shared by the traffic and storm drivers.

/// Throws std::invalid_argument, prefixed with `driver`, unless `protocols`
/// is non-empty and `demand` and `plan` cover `g`.
void validate_sweep_inputs(const char* driver, const graph::Graph& g,
                           const traffic::TrafficMatrix& demand,
                           const traffic::CapacityPlan& plan,
                           const std::vector<NamedFactory>& protocols);

/// What one pristine routing pass of a protocol over the sweep's work-list
/// leaves every scenario cell: the flow index (paths, delivery and the costs
/// stretch divides by) and, for storm sweeps, its group view.
struct PristinePass {
  traffic::FlowIncidenceIndex flows;
  traffic::GroupIncidence groups;  ///< SRLG-grained view (storm sweeps only)
};

/// One pristine pass per protocol over `flows`: each protocol is routed
/// once, by FlowIncidenceIndex::build.  `cache` warms with the pristine
/// tables every scenario repair then starts from.  A `catalog` adds the
/// group view the storm sweeps probe.
[[nodiscard]] std::vector<PristinePass> build_pristine_passes(
    const graph::Graph& g, const std::vector<NamedFactory>& protocols,
    std::span<const sim::FlowSpec> flows, std::span<const double> demands,
    route::ScenarioRoutingCache& cache, const net::SrlgCatalog* catalog = nullptr);

/// One (scenario, protocol) cell: the congestion metrics row, the worst
/// stretch among delivered re-routed flows, and how many flows went through
/// the protocol instance.
struct CellOutcome {
  traffic::CongestionMetrics metrics;
  double max_stretch = 1.0;
  std::size_t rerouted = 0;
};

/// The incremental cell over a work-list `flows`/`demands` that `index` was
/// built from.  The caller probes the affected flows into `scratch`
/// (affected and affected_mark, as the affected_flows probes of
/// FlowIncidenceIndex and GroupIncidence leave them); the cell re-routes
/// only those with full traces, rebuilds `load` by replaying every flow in
/// canonical flow order -- `index`'s pristine rows for the untouched
/// majority, the fresh paths for the rest -- splits dropped demand into lost
/// (source and destination share a `component`) and stranded, and applies
/// utilization against `plan`.  max_stretch divides each delivered re-routed
/// flow's cost by `index`'s pristine cost.  When nothing is affected no
/// protocol instance is built at all.
[[nodiscard]] CellOutcome evaluate_cell(
    const graph::Graph& g, const net::Network& network,
    std::span<const std::uint32_t> component, const NamedFactory& factory,
    route::ScenarioRoutingCache& cache, const traffic::FlowIncidenceIndex& index,
    std::span<const sim::FlowSpec> flows, std::span<const double> demands,
    double offered_pps, const traffic::CapacityPlan& plan, sim::BatchResult& batch,
    traffic::LoadMap& load, traffic::IncidenceScratch& scratch);

}  // namespace pr::analysis
