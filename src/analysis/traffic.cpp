#include "analysis/traffic.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/connectivity.hpp"
#include "sim/parallel_sweep.hpp"

namespace pr::analysis {

using graph::NodeId;

double collect_demand_flows(const traffic::TrafficMatrix& demand,
                            std::vector<sim::FlowSpec>& flows,
                            std::vector<double>& demands) {
  flows.clear();
  demands.clear();
  double offered = 0.0;
  const std::size_t n = demand.node_count();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t || demand.demand(s, t) == 0.0) continue;
      flows.push_back(sim::FlowSpec{s, t});
      demands.push_back(demand.demand(s, t));
      offered += demands.back();
    }
  }
  return offered;
}

traffic::CapacityPlan baseline_capacity_plan(const graph::Graph& g,
                                             const traffic::TrafficMatrix& demand,
                                             const NamedFactory& spf) {
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  collect_demand_flows(demand, flows, demands);
  net::Network network(g);
  const auto protocol = spf.make(network);
  traffic::LoadMap load;
  sim::BatchResult batch;
  sim::route_batch(network, *protocol, flows, demands, load, sim::TraceMode::kStats, batch);
  double peak = 0.0;
  for (const double v : load.darts()) peak = std::max(peak, v);
  return traffic::CapacityPlan::uniform(g, peak / kBaselineUtilization);
}

void validate_sweep_inputs(const char* driver, const graph::Graph& g,
                           const traffic::TrafficMatrix& demand,
                           const traffic::CapacityPlan& plan,
                           const std::vector<NamedFactory>& protocols) {
  const std::string who(driver);
  if (protocols.empty()) {
    throw std::invalid_argument(who + ": no protocols given");
  }
  if (demand.node_count() != g.node_count()) {
    throw std::invalid_argument(who + ": demand matrix does not cover the graph");
  }
  if (plan.edge_count() != g.edge_count()) {
    throw std::invalid_argument(who + ": capacity plan does not cover the graph");
  }
}

std::vector<PristinePass> build_pristine_passes(
    const graph::Graph& g, const std::vector<NamedFactory>& protocols,
    std::span<const sim::FlowSpec> flows, std::span<const double> demands,
    route::ScenarioRoutingCache& cache, const net::SrlgCatalog* catalog) {
  std::vector<PristinePass> passes(protocols.size());
  const net::Network pristine(g);
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    PristinePass& pass = passes[i];
    const auto instance = make_protocol(protocols[i], pristine, cache);
    pass.flows.build(pristine, *instance, flows, demands);
    if (catalog != nullptr) pass.groups.build(pass.flows, *catalog);
  }
  return passes;
}

CellOutcome evaluate_cell(
    const graph::Graph& g, const net::Network& network,
    std::span<const std::uint32_t> component, const NamedFactory& factory,
    route::ScenarioRoutingCache& cache, const traffic::FlowIncidenceIndex& index,
    std::span<const sim::FlowSpec> flows, std::span<const double> demands,
    double offered_pps, const traffic::CapacityPlan& plan, sim::BatchResult& batch,
    traffic::LoadMap& load, traffic::IncidenceScratch& scratch) {
  // Re-route the affected flows in canonical flow order.  When the scenario
  // touches no pristine path there is nothing to re-route: the protocol
  // instance (and any routing-table repair it would trigger) is skipped
  // entirely and the replay below is the whole answer.
  batch.clear();
  if (!scratch.affected.empty()) {
    scratch.flows.clear();
    for (const std::uint32_t f : scratch.affected) scratch.flows.push_back(flows[f]);
    const auto instance = make_protocol(factory, network, cache);
    sim::route_batch(network, *instance, scratch.flows, sim::TraceMode::kFullTrace,
                     batch);
  }

  // The replay performs the exact floating-point additions (same values,
  // same order, per dart and per volume counter) that a full re-route of
  // every flow performs, so the metrics row and load map are bit-identical
  // to the kFullReroute oracle.
  load.reset(g.dart_count());
  CellOutcome out;
  out.rerouted = scratch.affected.size();
  traffic::CongestionMetrics& m = out.metrics;
  m.offered_pps = offered_pps;
  std::size_t a = 0;  // cursor into the re-routed batch
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const double rate = demands[f];
    bool delivered;
    if (scratch.affected_mark[f] != 0) {
      for (const graph::DartId d : batch.darts(a)) load.add(d, rate);
      delivered = batch[a].delivered();
      if (delivered && index.pristine_cost(f) > 0.0) {
        out.max_stretch = std::max(out.max_stretch, batch[a].cost / index.pristine_cost(f));
      }
      ++a;
    } else {
      for (const graph::DartId d : index.flow_darts(f)) load.add(d, rate);
      delivered = index.pristine_delivered(f);
    }
    if (delivered) {
      m.delivered_pps += rate;
    } else if (component[flows[f].source] == component[flows[f].destination]) {
      m.lost_pps += rate;
    } else {
      m.stranded_pps += rate;
    }
  }
  traffic::apply_utilization(m, g, load, plan);
  return out;
}

namespace {

/// The kFullReroute oracle's cell: routes every flow, demand-weighted, into
/// `load`, then the full metrics row.  `component` holds the scenario's
/// residual component ids (graph minus failures) and splits dropped demand
/// into lost (path existed) vs stranded (partitioned) -- deliberately
/// independent of the routing cache, whose table storage the protocol
/// instance may be borrowing.
CellOutcome route_cell(const graph::Graph& g, const net::Network& network,
                       std::span<const std::uint32_t> component,
                       const NamedFactory& factory, route::ScenarioRoutingCache& cache,
                       std::span<const sim::FlowSpec> flows,
                       std::span<const double> demands, double offered_pps,
                       const traffic::CapacityPlan& plan, sim::BatchResult& batch,
                       traffic::LoadMap& load) {
  const auto instance = make_protocol(factory, network, cache);
  sim::route_batch(network, *instance, flows, demands, load, sim::TraceMode::kStats,
                   batch);

  CellOutcome out;
  out.rerouted = flows.size();
  traffic::CongestionMetrics& m = out.metrics;
  m.offered_pps = offered_pps;
  traffic::apply_utilization(m, g, load, plan);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (batch[f].delivered()) {
      m.delivered_pps += demands[f];
    } else if (component[flows[f].source] == component[flows[f].destination]) {
      m.lost_pps += demands[f];
    } else {
      m.stranded_pps += demands[f];
    }
  }
  return out;
}

/// A traffic sweep's shared inputs -- the demand work-list, its offered
/// volume and, in incremental mode, the pristine passes -- plus the pricing
/// of one (scenario, protocol) cell, used alike by the serial driver and the
/// executor's unit function.
struct TrafficSweep {
  const graph::Graph& g;
  const traffic::CapacityPlan& plan;
  const std::vector<NamedFactory>& protocols;
  TrafficSweepMode mode;
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  double offered = 0.0;
  std::vector<PristinePass> pristine;

  /// Validates the inputs and runs the pristine passes through `cache`.
  TrafficSweep(const graph::Graph& graph, const traffic::TrafficMatrix& demand,
               const traffic::CapacityPlan& capacity,
               const std::vector<NamedFactory>& factories, TrafficSweepMode sweep_mode,
               route::ScenarioRoutingCache& cache)
      : g(graph), plan(capacity), protocols(factories), mode(sweep_mode) {
    validate_sweep_inputs("run_traffic_experiment", g, demand, plan, protocols);
    offered = collect_demand_flows(demand, flows, demands);
    if (mode == TrafficSweepMode::kIncremental) {
      pristine = build_pristine_passes(g, protocols, flows, demands, cache);
    }
  }

  /// Prices protocol `i` under the scenario installed in `network` into
  /// `load`.  Incremental mode probes the flow incidence index per failed
  /// edge, and Debug builds re-price the cell through the full oracle and
  /// demand bit-identity -- the enforcement teeth of the failure-local
  /// protocol contract documented in traffic/incidence.hpp.
  CellOutcome price(std::size_t i, const net::Network& network,
                    std::span<const std::uint32_t> component,
                    route::ScenarioRoutingCache& cache, sim::BatchResult& batch,
                    traffic::LoadMap& load, traffic::IncidenceScratch& scratch) const {
    if (mode == TrafficSweepMode::kFullReroute) {
      return route_cell(g, network, component, protocols[i], cache, flows, demands,
                        offered, plan, batch, load);
    }
    pristine[i].flows.affected_flows(network.failed_links(), scratch.affected_mark,
                                     scratch.affected);
    CellOutcome cell = evaluate_cell(g, network, component, protocols[i], cache,
                                     pristine[i].flows, flows, demands, offered, plan,
                                     batch, load, scratch);
#ifndef NDEBUG
    sim::BatchResult oracle_batch;
    traffic::LoadMap oracle_load;
    const CellOutcome oracle = route_cell(g, network, component, protocols[i], cache,
                                          flows, demands, offered, plan, oracle_batch,
                                          oracle_load);
    const traffic::LoadMapDiff d = traffic::diff(load, oracle_load);
    if (!(cell.metrics == oracle.metrics) || !d.identical()) {
      throw std::logic_error(
          "run_traffic_experiment: incremental cell diverged from the full "
          "re-route oracle (protocol '" +
          protocols[i].name + "', " + std::to_string(d.differing) +
          " darts differ, max |delta| " + std::to_string(d.max_abs_delta) + ")");
    }
#endif
    return cell;
  }

  [[nodiscard]] TrafficExperimentResult make_result(std::size_t scenarios) const {
    TrafficExperimentResult result;
    result.scenarios = scenarios;
    result.flows_per_scenario = flows.size();
    result.mode = mode;
    result.protocols.reserve(protocols.size());
    for (const auto& p : protocols) {
      result.protocols.emplace_back().name = p.name;
      result.protocols.back().per_scenario.reserve(scenarios);
    }
    return result;
  }
};

/// Folds one priced cell into its protocol's aggregate: the serial driver
/// and the ordered reduce perform these additions in the same canonical
/// scenario order, so the sums are bit-identical.
void fold(ProtocolTraffic& agg, const CellOutcome& cell, const traffic::LoadMap& load) {
  agg.per_scenario.push_back(cell.metrics);
  agg.total_load.add(load);
  agg.rerouted_flows += cell.rerouted;
}

}  // namespace

TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, TrafficSweepMode mode) {
  // Reused across scenarios and protocols; once warm, a scenario's routing
  // allocates nothing beyond the per-scenario metric rows and component ids.
  // The cache warms with the pristine tables every scenario repair starts
  // from.
  route::ScenarioRoutingCache cache;
  const TrafficSweep sweep(g, demand, plan, protocols, mode, cache);
  TrafficExperimentResult result = sweep.make_result(scenarios.size());
  sim::BatchResult batch;
  traffic::LoadMap load;
  traffic::IncidenceScratch scratch;

  for (const auto& failures : scenarios) {
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);
    const auto component = graph::connected_components(g, &failures);
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const CellOutcome cell =
          sweep.price(i, network, component, cache, batch, load, scratch);
      fold(result.protocols[i], cell, load);
    }
  }
  return result;
}

TrafficRunResult run_traffic_experiment_resilient(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    const sim::RunControl& control, TrafficSweepMode mode) {
  // Per-protocol pristine indexes are built once, serially, then shared
  // read-only by every worker.
  route::ScenarioRoutingCache pristine_cache;
  const TrafficSweep sweep(g, demand, plan, protocols, mode, pristine_cache);

  // Flat-memory plumbing: a slot ring of the executor's reorder window; a
  // slot holds one scenario's cells and load maps (per protocol) from its
  // unit function until its reduce.
  struct Slot {
    std::vector<CellOutcome> cells;
    std::vector<traffic::LoadMap> loads;
  };
  const std::size_t window = executor.default_ordered_window();
  std::vector<Slot> slots(window, Slot{std::vector<CellOutcome>(protocols.size()),
                                       std::vector<traffic::LoadMap>(protocols.size())});

  TrafficRunResult run;
  run.result = sweep.make_result(scenarios.size());
  const sim::SweepExecutor::UnitFn unit_fn = [&](std::size_t unit,
                                                 sim::WorkerContext& ctx) {
    const graph::EdgeSet& failures = scenarios[unit];
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);
    const auto component = graph::connected_components(g, &failures);
    Slot& slot = slots[unit % window];
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      slot.cells[i] = sweep.price(i, network, component, ctx.routes, ctx.batch,
                                  slot.loads[i], ctx.incidence);
    }
  };
  // Only units inside the executor's truncation prefix are reduced, and a
  // failed unit (kContinue policy) is skipped whole: every protocol gets the
  // same rows.
  const sim::SweepExecutor::ReduceFn reduce_fn = [&](std::size_t unit) {
    const Slot& slot = slots[unit % window];
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      fold(run.result.protocols[i], slot.cells[i], slot.loads[i]);
    }
  };
  run.outcome = executor.run(scenarios.size(), unit_fn, control, {.reduce = reduce_fn});
  run.result.scenarios = run.outcome.completed_units;
  return run;
}

TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    TrafficSweepMode mode) {
  TrafficRunResult run = run_traffic_experiment_resilient(
      g, demand, plan, scenarios, protocols, executor, sim::RunControl{}, mode);
  sim::throw_if_failed(run.outcome);
  return std::move(run.result);
}

}  // namespace pr::analysis
