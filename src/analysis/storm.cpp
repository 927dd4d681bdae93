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
// Checkpoint schema for storm sweeps: kind "storm-sweep", version 1.
//
// walk_storm_state() is the schema: it visits every field in blob order,
// naming each one's wire type, and seals a blob when it runs with a
// StormSealer or restores one when it runs with a StormRestorer.  A visit
// that names what it checks is an echo, which the restorer compares with the
// live experiment; a count is bounded before it sizes anything.  In order:
//   - echoes: kind, version (the only u32), seed, scenario target, top_k,
//     quantile count and values, protocol count and names;
//   - the scenario cursor; echoes of flows per scenario and offered volume;
//   - failed-group and failed-edge summaries (count, sum, min, max), calm
//     and disconnected scenario counts;
//   - per protocol: utilization and stretch summaries; delivered, lost and
//     stranded volume; overloaded links, overloaded and lossy scenarios,
//     re-routed flows; the utilization and stretch P^2 sets (estimator
//     count, then per estimator its quantile, count and 5 each of heights,
//     positions, desired positions and increments); the top-K table (entry
//     count, then per entry key, id, max utilization, max stretch, lost,
//     stranded, failed-group count and ids, failed edges).
// The top-K table is written in sorted() order, which is deterministic;
// re-adding the entries restores behaviourally identical state because
// eviction and output are pure functions of the entry set.  A new field is
// one walk line; a layout change bumps the version.

constexpr std::string_view kStormCheckpointKind = "storm-sweep";
constexpr std::uint32_t kStormCheckpointVersion = 1;

/// The mutable state of one storm sweep: everything a checkpoint must carry.
struct StormState {
  StormExperimentResult result;
  std::vector<P2QuantileSet> utilization_q;
  std::vector<P2QuantileSet> stretch_q;
  std::vector<TopK<StormScenarioRecord>> worst;
  std::size_t completed = 0;  ///< absolute scenario cursor
};

/// Runs the walk to seal a blob: every visit appends its field.
struct StormSealer {
  static constexpr bool kRestoring = false;
  void u32(std::uint32_t v, const char* /*echo*/) { w.u32(v); }
  void u64(std::uint64_t v, const char* /*echo*/ = nullptr) { w.u64(v); }
  void f64(double v, const char* /*echo*/ = nullptr) { w.f64(v); }
  void str(std::string_view v, const char* /*echo*/) { w.str(v); }
  void count(std::size_t n, std::size_t /*bound*/, const char* /*what*/) { w.u64(n); }
  CheckpointWriter w;
};

/// Runs the walk to restore a blob: a field is read into the state, an echo
/// must equal the live value it names and a count must not exceed its bound;
/// anything else throws CheckpointError.
struct StormRestorer {
  static constexpr bool kRestoring = true;
  template <typename Unsigned>
  void u64(Unsigned& field) { field = static_cast<Unsigned>(r.u64()); }
  void f64(double& field) { field = r.f64(); }
  void u32(std::uint32_t live, const char* what) { echo(r.u32() == live, what); }
  void u64(std::uint64_t live, const char* what) { echo(r.u64() == live, what); }
  void f64(double live, const char* what) { echo(r.f64() == live, what); }
  void str(std::string_view live, const char* what) { echo(r.str() == live, what); }
  void count(std::size_t& n, std::size_t bound, const char* what) {
    u64(n);
    if (n > bound) fail(what, std::to_string(n) + " exceeds " + std::to_string(bound));
  }
  static void echo(bool matches, const char* what) {
    if (!matches) fail(what, "mismatch");
  }
  [[noreturn]] static void fail(const char* what, const std::string& why) {
    throw CheckpointError(std::string("storm checkpoint: ") + what + " " + why);
  }
  CheckpointReader r;
};

template <typename Io, typename Summary>
void walk_summary(Io& io, Summary& s) {
  io.u64(s.count);
  io.f64(s.sum);
  io.f64(s.min);
  io.f64(s.max);
}

template <typename Io, typename Set>
void walk_p2_set(Io& io, Set& set) {
  io.u64(set.size(), "quantile estimator count");
  for (std::size_t i = 0; i < set.size(); ++i) {
    P2State s = set.at(i).state();
    io.f64(s.quantile, "estimator quantile");
    io.u64(s.count);
    for (double& x : s.heights) io.f64(x);
    for (double& x : s.positions) io.f64(x);
    for (double& x : s.desired) io.f64(x);
    for (double& x : s.desired_delta) io.f64(x);
    if constexpr (Io::kRestoring) set.at(i) = P2Quantile::from_state(s);
  }
}

template <typename Io, typename Top>
void walk_top_k(Io& io, Top& top, std::size_t group_count) {
  auto entries = top.sorted();
  std::size_t n = entries.size();
  io.count(n, top.capacity(), "top-K entry count");
  entries.resize(n);
  for (auto& [key, id, record] : entries) {
    io.f64(key);
    io.u64(id);
    io.f64(record.max_utilization);
    io.f64(record.max_stretch);
    io.f64(record.lost_pps);
    io.f64(record.stranded_pps);
    std::size_t groups = record.failed_groups.size();
    io.count(groups, group_count, "failed-group count");
    record.failed_groups.resize(groups);
    for (std::size_t& gid : record.failed_groups) io.u64(gid);
    io.u64(record.failed_edges);
    if constexpr (Io::kRestoring) top.add(key, id, record);
  }
}

/// Every field of the version-1 layout, in blob order.  `state` is const
/// when sealing and mutable when restoring; Io::kRestoring guards the two
/// steps that rebuild a reducer from the fields just read.  `cursor` is
/// apart from `state` so the executor's auto-checkpoint hook can seal a
/// mid-run watermark while state.completed still holds the resume offset.
template <typename Io, typename State>
void walk_storm_state(Io& io, State& state, std::size_t& cursor,
                      const StormSweepConfig& config,
                      const std::vector<NamedFactory>& protocols,
                      std::size_t group_count) {
  io.str(kStormCheckpointKind, "kind");
  io.u32(kStormCheckpointVersion, "version");
  io.u64(config.seed, "seed");
  io.u64(config.scenarios, "scenario target");
  io.u64(config.top_k, "top_k");
  io.u64(config.quantiles.size(), "quantile count");
  for (const double q : config.quantiles) io.f64(q, "quantile");
  io.u64(protocols.size(), "protocol count");
  for (const NamedFactory& p : protocols) io.str(p.name, "protocol name");
  io.count(cursor, config.scenarios, "scenario cursor");
  auto& result = state.result;
  io.u64(result.flows_per_scenario, "flow count (different demand?)");
  io.f64(result.offered_pps, "offered volume (different demand?)");
  walk_summary(io, result.failed_groups);
  walk_summary(io, result.failed_edges);
  io.u64(result.calm_scenarios);
  io.u64(result.disconnected_scenarios);
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    auto& p = result.protocols[i];
    walk_summary(io, p.utilization);
    walk_summary(io, p.stretch);
    io.f64(p.delivered_pps);
    io.f64(p.lost_pps);
    io.f64(p.stranded_pps);
    io.u64(p.overloaded_links);
    io.u64(p.overloaded_scenarios);
    io.u64(p.lossy_scenarios);
    io.u64(p.rerouted_flows);
    walk_p2_set(io, state.utilization_q[i]);
    walk_p2_set(io, state.stretch_q[i]);
    walk_top_k(io, state.worst[i], group_count);
  }
}

/// Seals the reducer prefix [0, completed) as a blob.  Under the executor's
/// reduce lock the reducers ARE the watermark prefix.
std::string serialize_storm_state(const StormState& state, std::size_t completed,
                                  const StormSweepConfig& config,
                                  const std::vector<NamedFactory>& protocols,
                                  std::size_t group_count, bool inject_failure) {
  if (inject_failure) throw CheckpointError("injected checkpoint failure (fault plan)");
  StormSealer io;
  walk_storm_state(io, state, completed, config, protocols, group_count);
  return io.w.finish();
}

/// Restores `state`, which holds fresh reducers for the live experiment,
/// from a blob; throws CheckpointError on any mismatch or corruption.
void restore_storm_state(std::string_view blob, const StormSweepConfig& config,
                         const std::vector<NamedFactory>& protocols,
                         std::size_t group_count, StormState& state) {
  StormRestorer io{.r = CheckpointReader(blob)};
  try {
    walk_storm_state(io, state, state.completed, config, protocols, group_count);
  } catch (const std::invalid_argument& e) {  // P2Quantile::from_state
    throw CheckpointError(std::string("storm checkpoint: ") + e.what());
  }
  if (!io.r.exhausted()) {
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

  const std::size_t group_count = model.catalog().group_count();
  StormRunResult run;
  if (!options.resume_from.empty()) {
    restore_storm_state(options.resume_from, config, protocols, group_count, state);
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
      return serialize_storm_state(state, offset + k, config, protocols, group_count,
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
        state, state.completed, config, protocols, group_count,
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
