#include "analysis/storm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/checkpoint.hpp"
#include "analysis/traffic.hpp"
#include "graph/connectivity.hpp"
#include "sim/fault_plan.hpp"
#include "traffic/congestion.hpp"

namespace pr::analysis {

namespace {

void validate_storm_inputs(const graph::Graph& g, const traffic::TrafficMatrix& demand,
                           const traffic::CapacityPlan& plan, const net::StormModel& model,
                           const std::vector<NamedFactory>& protocols,
                           const std::vector<double>& quantiles) {
  validate_sweep_inputs("storm sweep", g, demand, plan, protocols);
  if (&model.catalog().graph() != &g) {
    throw std::invalid_argument("storm sweep: storm model is over a different graph");
  }
  if (quantiles.empty()) {
    throw std::invalid_argument("storm sweep: at least one quantile required");
  }
  for (const double q : quantiles) {
    if (!(q > 0.0 && q < 1.0)) {
      throw std::invalid_argument("storm sweep: quantiles must lie in (0, 1)");
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint schema for storm sweeps.
//
// kind "storm-sweep" version 1: a config echo (seed, scenario target, top_k,
// quantiles, protocol names) the reader validates against the live
// experiment, the absolute scenario cursor, the scenario-shape reducers, and
// per protocol the two summaries, volume sums, counters, P^2 marker states
// and the top-K entry set (serialized via sorted(), whose order is
// deterministic; re-adding the entries restores behaviourally identical
// state because eviction and output are pure functions of the entry set).

constexpr std::string_view kStormCheckpointKind = "storm-sweep";
constexpr std::uint32_t kStormCheckpointVersion = 1;

void put_summary(CheckpointWriter& w, const RunningSummary& s) {
  w.u64(s.count);
  w.f64(s.sum);
  w.f64(s.min);
  w.f64(s.max);
}

RunningSummary get_summary(CheckpointReader& r) {
  RunningSummary s;
  s.count = r.u64();
  s.sum = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  return s;
}

void put_p2_set(CheckpointWriter& w, const P2QuantileSet& set) {
  w.u64(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    const P2State s = set.at(i).state();
    w.f64(s.quantile);
    w.u64(s.count);
    for (const double h : s.heights) w.f64(h);
    for (const double p : s.positions) w.f64(p);
    for (const double d : s.desired) w.f64(d);
    for (const double d : s.desired_delta) w.f64(d);
  }
}

P2QuantileSet get_p2_set(CheckpointReader& r, const std::vector<double>& quantiles) {
  const std::uint64_t n = r.u64();
  if (n != quantiles.size()) {
    throw CheckpointError("storm checkpoint: quantile estimator count mismatch");
  }
  std::vector<P2Quantile> estimators;
  estimators.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    P2State s;
    s.quantile = r.f64();
    s.count = r.u64();
    for (double& h : s.heights) h = r.f64();
    for (double& p : s.positions) p = r.f64();
    for (double& d : s.desired) d = r.f64();
    for (double& d : s.desired_delta) d = r.f64();
    if (s.quantile != quantiles[i]) {
      throw CheckpointError("storm checkpoint: quantile value mismatch");
    }
    try {
      estimators.push_back(P2Quantile::from_state(s));
    } catch (const std::invalid_argument& e) {
      throw CheckpointError(std::string("storm checkpoint: ") + e.what());
    }
  }
  return P2QuantileSet(std::move(estimators));
}

void put_top_k(CheckpointWriter& w, const TopK<StormScenarioRecord>& top) {
  const auto entries = top.sorted();
  w.u64(entries.size());
  for (const auto& e : entries) {
    w.f64(e.key);
    w.u64(e.id);
    w.f64(e.value.max_utilization);
    w.f64(e.value.max_stretch);
    w.f64(e.value.lost_pps);
    w.f64(e.value.stranded_pps);
    w.u64(e.value.failed_groups.size());
    for (const std::size_t gid : e.value.failed_groups) w.u64(gid);
    w.u64(e.value.failed_edges);
  }
}

TopK<StormScenarioRecord> get_top_k(CheckpointReader& r, std::size_t k) {
  TopK<StormScenarioRecord> top(k);
  const std::uint64_t n = r.u64();
  if (n > k) {
    throw CheckpointError("storm checkpoint: top-K holds more entries than its capacity");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const double key = r.f64();
    const std::uint64_t id = r.u64();
    StormScenarioRecord record;
    record.max_utilization = r.f64();
    record.max_stretch = r.f64();
    record.lost_pps = r.f64();
    record.stranded_pps = r.f64();
    record.failed_groups.resize(r.u64());
    for (std::size_t& gid : record.failed_groups) gid = r.u64();
    record.failed_edges = r.u64();
    top.add(key, id, record);
  }
  return top;
}

/// The mutable state of one storm sweep: everything a checkpoint must carry.
struct StormState {
  StormExperimentResult result;
  std::vector<P2QuantileSet> utilization_q;
  std::vector<P2QuantileSet> stretch_q;
  std::vector<TopK<StormScenarioRecord>> worst;
  std::size_t completed = 0;  ///< absolute scenario cursor
};

/// Seals the reducer prefix [0, completed) as a blob.  `completed` is passed
/// explicitly (not read from state) so the executor's auto-checkpoint hook
/// can seal a mid-run watermark while state.completed still holds the resume
/// offset -- the reducers themselves ARE the watermark prefix whenever this
/// runs under the executor's reduce lock.
std::string serialize_storm_state(const StormState& state, std::size_t completed,
                                  const StormSweepConfig& config,
                                  const std::vector<NamedFactory>& protocols,
                                  bool inject_failure) {
  CheckpointWriter w;
  w.str(kStormCheckpointKind);
  w.u32(kStormCheckpointVersion);
  w.u64(config.seed);
  w.u64(config.scenarios);
  w.u64(config.top_k);
  w.u64(config.quantiles.size());
  for (const double q : config.quantiles) w.f64(q);
  w.u64(protocols.size());
  for (const auto& p : protocols) w.str(p.name);
  w.u64(completed);
  w.u64(state.result.flows_per_scenario);
  w.f64(state.result.offered_pps);
  put_summary(w, state.result.failed_groups);
  put_summary(w, state.result.failed_edges);
  w.u64(state.result.calm_scenarios);
  w.u64(state.result.disconnected_scenarios);
  if (inject_failure) {
    throw CheckpointError("injected checkpoint failure (fault plan)");
  }
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const StormProtocolResult& p = state.result.protocols[i];
    put_summary(w, p.utilization);
    put_summary(w, p.stretch);
    w.f64(p.delivered_pps);
    w.f64(p.lost_pps);
    w.f64(p.stranded_pps);
    w.u64(p.overloaded_links);
    w.u64(p.overloaded_scenarios);
    w.u64(p.lossy_scenarios);
    w.u64(p.rerouted_flows);
    put_p2_set(w, state.utilization_q[i]);
    put_p2_set(w, state.stretch_q[i]);
    put_top_k(w, state.worst[i]);
  }
  return w.finish();
}

/// Restores `state` from a blob, validating every config echo against the
/// live experiment; throws CheckpointError on any mismatch.
void restore_storm_state(std::string_view blob, const StormSweepConfig& config,
                         const std::vector<NamedFactory>& protocols,
                         StormState& state) {
  CheckpointReader r(blob);
  if (r.str() != kStormCheckpointKind) {
    throw CheckpointError("storm checkpoint: wrong kind");
  }
  if (r.u32() != kStormCheckpointVersion) {
    throw CheckpointError("storm checkpoint: unsupported version");
  }
  if (r.u64() != config.seed) {
    throw CheckpointError("storm checkpoint: seed mismatch");
  }
  if (r.u64() != config.scenarios) {
    throw CheckpointError("storm checkpoint: scenario target mismatch");
  }
  if (r.u64() != config.top_k) {
    throw CheckpointError("storm checkpoint: top_k mismatch");
  }
  const std::uint64_t quantile_count = r.u64();
  if (quantile_count != config.quantiles.size()) {
    throw CheckpointError("storm checkpoint: quantile count mismatch");
  }
  for (const double q : config.quantiles) {
    if (r.f64() != q) throw CheckpointError("storm checkpoint: quantile mismatch");
  }
  const std::uint64_t protocol_count = r.u64();
  if (protocol_count != protocols.size()) {
    throw CheckpointError("storm checkpoint: protocol count mismatch");
  }
  for (const auto& p : protocols) {
    if (r.str() != p.name) {
      throw CheckpointError("storm checkpoint: protocol name mismatch");
    }
  }
  const std::uint64_t completed = r.u64();
  if (completed > config.scenarios) {
    throw CheckpointError("storm checkpoint: cursor past the scenario target");
  }
  const std::uint64_t flows_per_scenario = r.u64();
  if (flows_per_scenario != state.result.flows_per_scenario) {
    throw CheckpointError("storm checkpoint: flow count mismatch (different demand?)");
  }
  const double offered = r.f64();
  if (offered != state.result.offered_pps) {
    throw CheckpointError("storm checkpoint: offered volume mismatch (different demand?)");
  }
  state.completed = static_cast<std::size_t>(completed);
  state.result.failed_groups = get_summary(r);
  state.result.failed_edges = get_summary(r);
  state.result.calm_scenarios = r.u64();
  state.result.disconnected_scenarios = r.u64();
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    StormProtocolResult& p = state.result.protocols[i];
    p.utilization = get_summary(r);
    p.stretch = get_summary(r);
    p.delivered_pps = r.f64();
    p.lost_pps = r.f64();
    p.stranded_pps = r.f64();
    p.overloaded_links = r.u64();
    p.overloaded_scenarios = r.u64();
    p.lossy_scenarios = r.u64();
    p.rerouted_flows = r.u64();
    state.utilization_q[i] = get_p2_set(r, config.quantiles);
    state.stretch_q[i] = get_p2_set(r, config.quantiles);
    state.worst[i] = get_top_k(r, config.top_k);
  }
  if (!r.exhausted()) {
    throw CheckpointError("storm checkpoint: trailing bytes (schema mismatch)");
  }
}

/// Exact quantile of a probability-weighted sample set: the smallest value
/// whose cumulative probability reaches q (values sorted ascending).
double weighted_quantile(std::vector<std::pair<double, double>>& samples, double q,
                         double total) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double cumulative = 0.0;
  for (const auto& [value, probability] : samples) {
    cumulative += probability;
    if (cumulative >= q * total) return value;
  }
  return samples.back().first;
}

}  // namespace

StormRunResult run_storm_experiment_resilient(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, const net::StormModel& model,
    const std::vector<NamedFactory>& protocols, const StormSweepConfig& config,
    sim::SweepExecutor& executor, const StormRunOptions& options) {
  validate_storm_inputs(g, demand, plan, model, protocols, config.quantiles);
  if (config.scenarios == 0) {
    throw std::invalid_argument("run_storm_experiment: scenarios must be > 0");
  }
  if (options.persist_checkpoint && options.checkpoint_cadence.any() &&
      options.control == nullptr) {
    throw std::invalid_argument(
        "run_storm_experiment_resilient: auto-checkpointing requires a "
        "RunControl (an uncontrolled run cannot be interrupted, so a cadence "
        "on one is a configuration bug)");
  }

  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  const double offered = collect_demand_flows(demand, flows, demands);

  // Pristine-pass products, built once and shared read-only by all workers.
  route::ScenarioRoutingCache pristine_cache;
  const std::vector<PristinePass> passes = build_pristine_passes(
      g, protocols, flows, demands, pristine_cache, &model.catalog());

  // Calm scenarios (no failed group) are the common case under realistic
  // outage probabilities; their cell is the pristine cell, computed once here
  // with the same code path a live evaluation would take.
  const auto pristine_component = graph::connected_components(g);
  std::vector<CellOutcome> pristine_cells(protocols.size());
  {
    const net::Network pristine(g);
    sim::BatchResult batch;
    traffic::LoadMap load;
    traffic::IncidenceScratch scratch;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      passes[i].groups.affected_flows({}, scratch.affected_mark, scratch.affected);
      pristine_cells[i] = evaluate_cell(g, pristine, pristine_component, protocols[i],
                                        pristine_cache, passes[i].flows, flows, demands,
                                        offered, plan, batch, load, scratch);
    }
  }

  // Sweep state: the reducers a checkpoint carries.  Fresh here, then
  // overwritten by the resume blob when one was given.
  StormState state;
  state.result.flows_per_scenario = flows.size();
  state.result.offered_pps = offered;
  state.result.protocols.resize(protocols.size());
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    state.result.protocols[i].name = protocols[i].name;
    state.result.protocols[i].quantiles = config.quantiles;
  }
  state.utilization_q.assign(protocols.size(), P2QuantileSet(config.quantiles));
  state.stretch_q.assign(protocols.size(), P2QuantileSet(config.quantiles));
  state.worst.assign(protocols.size(), TopK<StormScenarioRecord>(config.top_k));

  StormRunResult run;
  if (!options.resume_from.empty()) {
    restore_storm_state(options.resume_from, config, protocols, state);
    run.resumed = true;
  }
  const std::size_t offset = state.completed;
  const std::size_t remaining = config.scenarios - offset;
  // An uncontrolled run goes under a default control and rethrows a failed
  // scenario through the executor's one rethrow path.
  const sim::RunControl uncontrolled;
  const sim::RunControl& control =
      options.control != nullptr ? *options.control : uncontrolled;
  const sim::FaultPlan* faults = control.fault_plan();
  const std::size_t group_count = model.catalog().group_count();

  // Flat-memory plumbing: a slot ring of the executor's reorder window, one
  // storm/component scratch per worker, and the streaming reducers.  Nothing
  // here grows with config.scenarios.
  struct WorkerScratch {
    net::StormSample sample;
    graph::ComponentScratch components;
  };
  struct Slot {
    std::vector<CellOutcome> cells;  // per protocol
    std::vector<std::size_t> groups;
    std::size_t failed_edges = 0;
    bool calm = false;
    bool disconnected = false;
  };
  const std::size_t window = executor.default_ordered_window();
  std::vector<Slot> slots(window);
  std::vector<WorkerScratch> scratches(executor.thread_count());

  StormExperimentResult& result = state.result;

  const sim::SweepExecutor::UnitFn unit_fn = [&](std::size_t unit,
                                                 sim::WorkerContext& ctx) {
    // Executor units are run-relative; `scenario` is the absolute index the
    // RNG stream, the top-K ids and the resume cursor are keyed on.  The
    // explicit reseed makes a resumed unit draw the stream of its absolute
    // scenario (for offset 0 it recomputes exactly what the executor seeded).
    const std::size_t scenario = offset + unit;
    ctx.rng() = graph::Rng(sim::split_seed(config.seed, scenario));
    Slot& slot = slots[unit % window];
    WorkerScratch& ws = scratches[ctx.worker()];

    model.sample(ctx.rng(), ws.sample);
    if (faults != nullptr && faults->malformed(unit)) {
      // Corrupt the draw the way a broken sampler or decoder would: a risk
      // group the catalog does not have.  Validation below must contain it.
      ws.sample.groups.push_back(group_count);
    }
    for (const std::size_t gid : ws.sample.groups) {
      if (gid >= group_count) {
        throw std::runtime_error("storm sweep: malformed scenario " +
                                 std::to_string(scenario) + ": risk group " +
                                 std::to_string(gid) + " out of range (catalog has " +
                                 std::to_string(group_count) + ")");
      }
    }
    slot.groups.assign(ws.sample.groups.begin(), ws.sample.groups.end());
    slot.failed_edges = ws.sample.failures.size();
    slot.calm = ws.sample.groups.empty();
    slot.disconnected = false;
    slot.cells.resize(protocols.size());
    if (slot.calm) {
      slot.cells = pristine_cells;
      return;
    }

    // A network of the unit's own: a cell that throws cannot leave its
    // failures behind for the next unit its worker runs.
    net::Network network(g);
    for (const graph::EdgeId e : ws.sample.failures.elements()) {
      network.fail_link(e);
    }
    slot.disconnected =
        graph::connected_components_into(g, &ws.sample.failures, ws.components) > 1;
    // The per-group probe finds the same flows a per-edge probe of the
    // failure union would, without walking every member edge.
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      passes[i].groups.affected_flows(slot.groups, ctx.incidence.affected_mark,
                                      ctx.incidence.affected);
      slot.cells[i] = evaluate_cell(g, network, ws.components.component, protocols[i],
                                    ctx.routes, passes[i].flows, flows, demands, offered,
                                    plan, ctx.batch, ctx.load, ctx.incidence);
    }
  };
  const sim::SweepExecutor::ReduceFn reduce_fn = [&](std::size_t unit) {
    const std::size_t scenario = offset + unit;
    const Slot& slot = slots[unit % window];
    result.failed_groups.add(static_cast<double>(slot.groups.size()));
    result.failed_edges.add(static_cast<double>(slot.failed_edges));
    if (slot.calm) ++result.calm_scenarios;
    if (slot.disconnected) ++result.disconnected_scenarios;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const CellOutcome& cell = slot.cells[i];
      const traffic::CongestionMetrics& m = cell.metrics;
      StormProtocolResult& p = result.protocols[i];
      p.utilization.add(m.max_utilization);
      p.stretch.add(cell.max_stretch);
      state.utilization_q[i].add(m.max_utilization);
      state.stretch_q[i].add(cell.max_stretch);
      p.delivered_pps += m.delivered_pps;
      p.lost_pps += m.lost_pps;
      p.stranded_pps += m.stranded_pps;
      p.overloaded_links += m.overloaded_links;
      if (m.overloaded_links > 0) ++p.overloaded_scenarios;
      if (m.lost_pps > 0.0) ++p.lossy_scenarios;
      p.rerouted_flows += cell.rerouted;
      state.worst[i].add(m.max_utilization, scenario,
                         StormScenarioRecord{m.max_utilization, cell.max_stretch,
                                             m.lost_pps, m.stranded_pps, slot.groups,
                                             slot.failed_edges});
    }
  };

  // Periodic durability: the monitor thread seals the reducers at its
  // watermark k (under the executor's reduce lock, so the blob is exactly the
  // prefix [0, k)) and hands the ABSOLUTE cursor offset + k to the caller's
  // persist hook off-lock.  Without a hook the checkpoint is inactive.
  sim::AutoCheckpoint auto_ckpt;
  if (options.persist_checkpoint) {
    auto_ckpt.cadence = options.checkpoint_cadence;
    auto_ckpt.serialize = [&](std::size_t k) {
      return serialize_storm_state(state, offset + k, config, protocols,
                                   faults != nullptr && faults->fail_checkpoint());
    };
    auto_ckpt.persist = [&](std::size_t k, std::string&& blob) {
      options.persist_checkpoint(offset + k, std::move(blob));
    };
  }
  run.outcome = executor.run(
      remaining, unit_fn, control,
      {.seed = config.seed, .reduce = reduce_fn, .checkpoint = &auto_ckpt});
  if (options.control == nullptr) sim::throw_if_failed(run.outcome);
  state.completed = offset + run.outcome.completed_units;
  run.completed_scenarios = state.completed;

  result.scenarios = state.completed;
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    result.protocols[i].utilization_quantiles = state.utilization_q[i].estimates();
    result.protocols[i].stretch_quantiles = state.stretch_q[i].estimates();
    result.protocols[i].worst = state.worst[i].sorted();
  }

  // Always emit a checkpoint at the new cursor; a serialization failure is
  // itself contained (the in-memory result stays valid, the caller sees why
  // the blob is missing).
  try {
    run.checkpoint = serialize_storm_state(
        state, state.completed, config, protocols,
        faults != nullptr && faults->fail_checkpoint());
  } catch (const CheckpointError& e) {
    run.checkpoint.clear();
    run.checkpoint_error = e.what();
  }
  run.result = std::move(state.result);
  return run;
}

StormExperimentResult run_storm_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, const net::StormModel& model,
    const std::vector<NamedFactory>& protocols, const StormSweepConfig& config,
    sim::SweepExecutor& executor) {
  return run_storm_experiment_resilient(g, demand, plan, model, protocols, config,
                                        executor)
      .result;
}

StormOracleResult run_exhaustive_storm(const graph::Graph& g,
                                       const traffic::TrafficMatrix& demand,
                                       const traffic::CapacityPlan& plan,
                                       const net::IndependentOutages& model,
                                       const std::vector<NamedFactory>& protocols,
                                       const std::vector<double>& quantiles) {
  validate_storm_inputs(g, demand, plan, model, protocols, quantiles);

  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  const double offered = collect_demand_flows(demand, flows, demands);

  route::ScenarioRoutingCache cache;
  const std::vector<PristinePass> passes =
      build_pristine_passes(g, protocols, flows, demands, cache, &model.catalog());

  const std::vector<net::WeightedScenario> enumeration =
      net::enumerate_outage_scenarios(model);

  StormOracleResult result;
  result.scenarios = enumeration.size();
  result.protocols.resize(protocols.size());
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    result.protocols[i].name = protocols[i].name;
  }

  // Weighted per-scenario metric samples per protocol, kept for the exact
  // quantile pass; 2^G entries, which the <= 20 group gate keeps bounded.
  std::vector<std::vector<std::pair<double, double>>> util_samples(protocols.size());
  std::vector<std::vector<std::pair<double, double>>> stretch_samples(protocols.size());

  net::Network network(g);
  graph::EdgeSet failures(g.edge_count());
  graph::ComponentScratch components;
  sim::BatchResult batch;
  traffic::LoadMap load;
  traffic::IncidenceScratch scratch;

  for (const net::WeightedScenario& scenario : enumeration) {
    result.total_probability += scenario.probability;

    failures.clear();
    for (const std::size_t gid : scenario.groups) {
      for (const graph::EdgeId e : model.catalog().members(gid)) failures.insert(e);
    }
    for (const graph::EdgeId e : failures.elements()) network.fail_link(e);
    graph::connected_components_into(g, &failures, components);

    for (std::size_t i = 0; i < protocols.size(); ++i) {
      passes[i].groups.affected_flows(scenario.groups, scratch.affected_mark,
                                      scratch.affected);
      const CellOutcome cell =
          evaluate_cell(g, network, components.component, protocols[i], cache,
                        passes[i].flows, flows, demands, offered, plan, batch, load, scratch);
      StormOracleProtocol& p = result.protocols[i];
      const double w = scenario.probability;
      p.mean_max_utilization += w * cell.metrics.max_utilization;
      p.mean_max_stretch += w * cell.max_stretch;
      p.expected_delivered_pps += w * cell.metrics.delivered_pps;
      p.expected_lost_pps += w * cell.metrics.lost_pps;
      p.expected_stranded_pps += w * cell.metrics.stranded_pps;
      if (cell.metrics.overloaded_links > 0) p.overload_probability += w;
      if (cell.metrics.lost_pps > 0.0) p.loss_probability += w;
      util_samples[i].emplace_back(cell.metrics.max_utilization, w);
      stretch_samples[i].emplace_back(cell.max_stretch, w);
    }
    for (const graph::EdgeId e : failures.elements()) network.restore_link(e);
  }

  for (std::size_t i = 0; i < protocols.size(); ++i) {
    StormOracleProtocol& p = result.protocols[i];
    p.utilization_quantiles.reserve(quantiles.size());
    p.stretch_quantiles.reserve(quantiles.size());
    for (const double q : quantiles) {
      p.utilization_quantiles.push_back(
          weighted_quantile(util_samples[i], q, result.total_probability));
      p.stretch_quantiles.push_back(
          weighted_quantile(stretch_samples[i], q, result.total_probability));
    }
  }
  return result;
}

}  // namespace pr::analysis
