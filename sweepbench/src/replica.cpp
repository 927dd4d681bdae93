#include "replica.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>

#include "analysis/checkpoint.hpp"
#include "analysis/reducers.hpp"
#include "graph/connectivity.hpp"
#include "net/network.hpp"
#include "traffic/congestion.hpp"
#include "traffic/incidence.hpp"

namespace sweepbench {

void ReplicaCounts::merge(const ReplicaCounts& other) {
  forward_hops += other.forward_hops;
  stranded_hops += other.stranded_hops;
  ttl_drops += other.ttl_drops;
  max_batch_hops = std::max(max_batch_hops, other.max_batch_hops);
  replayed_darts += other.replayed_darts;
  affected_flows += other.affected_flows;
  probed_flows += other.probed_flows;
}

namespace {

using Clock = std::chrono::steady_clock;

/// The reduce hook runs on whichever worker closes the ordering gap; it
/// records into that worker's log, which the worker's last unit left here.
thread_local SpanLog* t_log = nullptr;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct CellOutcome {
  traffic::CongestionMetrics metrics;
  double max_stretch = 1.0;
  std::size_t rerouted = 0;
};

/// What one cell reads besides its scenario.
struct CellInputs {
  const graph::Graph* g = nullptr;
  std::span<const sim::FlowSpec> flows;
  std::span<const double> demands;
  double offered_pps = 0.0;
  const traffic::CapacityPlan* plan = nullptr;
  route::DiscriminatorKind kind = route::DiscriminatorKind::kHops;
};

/// Darts a replay adds when it re-routes nothing: every pristine row of
/// `index`.  Computed once per index, outside every layer span.
std::uint64_t pristine_darts(const traffic::FlowIncidenceIndex& index) {
  std::uint64_t darts = 0;
  for (std::size_t f = 0; f < index.flow_count(); ++f) darts += index.flow_darts(f).size();
  return darts;
}

/// The incremental cell of both drivers, one span per layer call.  `probe`
/// fills scratch.affected / scratch.affected_mark.  The replay span's body
/// is the drivers' loop; kStretch adds the storm cell's stretch tracking
/// (`pristine_costs`), which the traffic cell does not have.  The replica's
/// counts are taken after the spans close, from the re-routed flows alone;
/// `index_darts` is pristine_darts(index).
template <bool kStretch, typename Probe>
CellOutcome cell(const CellInputs& in, const net::Network& network,
                 std::span<const std::uint32_t> component,
                 const analysis::NamedFactory& factory, route::ScenarioRoutingCache& cache,
                 const traffic::FlowIncidenceIndex& index, std::uint64_t index_darts,
                 Probe&& probe, std::span<const double> pristine_costs, sim::BatchResult& batch,
                 traffic::LoadMap& load, traffic::IncidenceScratch& scratch, SpanLog& log,
                 ReplicaCounts& counts) {
  {
    ScopedSpan span(log, Layer::kProbe);
    probe();
    if (!scratch.affected.empty()) {
      scratch.flows.clear();
      for (const std::uint32_t f : scratch.affected) scratch.flows.push_back(in.flows[f]);
    }
  }

  batch.clear();
  if (!scratch.affected.empty()) {
    if (factory.make_cached) {
      // The cached factories' table repair, timed apart from the instance
      // construction; make_protocol below then hits the same failure set.
      ScopedSpan span(log, Layer::kRepair);
      (void)cache.tables(*in.g, network.failed_links(), in.kind);
    }
    std::unique_ptr<net::ForwardingProtocol> instance;
    {
      ScopedSpan span(log, Layer::kMakeProtocol);
      instance = analysis::make_protocol(factory, network, cache);
    }
    ScopedSpan span(log, Layer::kRouteBatch);
    sim::route_batch(network, *instance, scratch.flows, sim::TraceMode::kFullTrace, batch);
  }

  CellOutcome out;
  {
    ScopedSpan span(log, Layer::kReplay);
    load.reset(in.g->dart_count());
    out.rerouted = scratch.affected.size();
    traffic::CongestionMetrics& m = out.metrics;
    m.offered_pps = in.offered_pps;
    std::size_t a = 0;  // cursor into the re-routed batch
    for (std::size_t f = 0; f < in.flows.size(); ++f) {
      const double rate = in.demands[f];
      bool delivered;
      if (scratch.affected_mark[f] != 0) {
        for (const graph::DartId d : batch.darts(a)) load.add(d, rate);
        delivered = batch[a].delivered();
        if constexpr (kStretch) {
          if (delivered && pristine_costs[f] > 0.0) {
            out.max_stretch = std::max(out.max_stretch, batch[a].cost / pristine_costs[f]);
          }
        }
        ++a;
      } else {
        for (const graph::DartId d : index.flow_darts(f)) load.add(d, rate);
        delivered = index.pristine_delivered(f);
      }
      if (delivered) {
        m.delivered_pps += rate;
      } else if (component[in.flows[f].source] == component[in.flows[f].destination]) {
        m.lost_pps += rate;
      } else {
        m.stranded_pps += rate;
      }
    }
  }
  {
    ScopedSpan span(log, Layer::kUtilization);
    traffic::apply_utilization(out.metrics, *in.g, load, *in.plan);
  }

  counts.affected_flows += scratch.affected.size();
  counts.probed_flows += in.flows.size();
  std::uint64_t batch_hops = 0;
  std::uint64_t skipped_darts = 0;  // pristine rows the replay did not add
  for (std::size_t a = 0; a < scratch.affected.size(); ++a) {
    const std::uint32_t f = scratch.affected[a];
    const std::uint64_t hops = batch.darts(a).size();
    batch_hops += hops;
    skipped_darts += index.flow_darts(f).size();
    if (component[in.flows[f].source] != component[in.flows[f].destination]) {
      counts.stranded_hops += hops;
    }
    if (batch[a].drop_reason == net::DropReason::kTtlExpired) ++counts.ttl_drops;
  }
  counts.forward_hops += batch_hops;
  counts.max_batch_hops = std::max(counts.max_batch_hops, batch_hops);
  counts.replayed_darts += index_darts - skipped_darts + batch_hops;
  return out;
}

std::vector<SpanLog> make_logs(std::size_t threads) {
  std::vector<SpanLog> logs;
  for (std::size_t lane = 0; lane <= threads; ++lane) {
    logs.emplace_back(static_cast<std::uint32_t>(lane));
  }
  return logs;
}

CellInputs cell_inputs(const Instance& inst, const std::vector<sim::FlowSpec>& flows,
                       const std::vector<double>& demands) {
  CellInputs in;
  in.g = &inst.graph;
  in.flows = flows;
  in.demands = demands;
  for (const double d : demands) in.offered_pps += d;  // canonical order
  in.plan = &inst.plan;
  in.kind = inst.suite->routes().discriminator_kind();
  return in;
}

// ---------------------------------------------------------------------------
// Storm driver: analysis::run_storm_experiment, uncontrolled, from scenario 0.

struct ProtocolIndex {
  traffic::FlowIncidenceIndex flows;
  traffic::GroupIncidence groups;
  std::vector<double> pristine_costs;
  std::uint64_t darts = 0;  ///< pristine_darts(flows)
};

ReplicaRun replay_storm(const Instance& inst, sim::SweepExecutor& executor) {
  ReplicaRun run;
  run.logs = make_logs(executor.thread_count());
  std::vector<ReplicaCounts> counts(executor.thread_count() + 1);
  SpanLog& driver_log = run.logs[0];
  const graph::Graph& g = inst.graph;
  const std::vector<analysis::NamedFactory>& protocols = inst.protocols;
  const analysis::StormSweepConfig& config = inst.storm;
  const net::StormModel& model = *inst.model;

  analysis::StormExperimentResult result;
  const auto start = Clock::now();
  {
    ScopedSpan sweep(driver_log, Layer::kSweep);
    std::vector<sim::FlowSpec> flows;
    std::vector<double> demands;
    analysis::collect_demand_flows(inst.demand, flows, demands);
    const CellInputs in = cell_inputs(inst, flows, demands);

    route::ScenarioRoutingCache pristine_cache;
    std::vector<ProtocolIndex> indexes(protocols.size());
    {
      ScopedSpan span(driver_log, Layer::kIndexBuild);
      const net::Network pristine(g);
      sim::BatchResult batch;
      for (std::size_t i = 0; i < protocols.size(); ++i) {
        const auto instance = analysis::make_protocol(protocols[i], pristine, pristine_cache);
        indexes[i].flows.build(pristine, *instance, flows, demands);
        indexes[i].groups.build(indexes[i].flows, *inst.catalog);
        sim::route_batch(pristine, *instance, flows, sim::TraceMode::kStats, batch);
        indexes[i].pristine_costs.resize(flows.size());
        for (std::size_t f = 0; f < flows.size(); ++f) {
          indexes[i].pristine_costs[f] = batch[f].cost;
        }
      }
    }
    for (ProtocolIndex& index : indexes) index.darts = pristine_darts(index.flows);

    std::vector<CellOutcome> pristine_cells(protocols.size());
    {
      ScopedSpan span(driver_log, Layer::kPristineCells);
      const auto pristine_component = graph::connected_components(g);
      const net::Network pristine(g);
      sim::BatchResult batch;
      traffic::LoadMap load;
      traffic::IncidenceScratch scratch;
      for (std::size_t i = 0; i < protocols.size(); ++i) {
        const traffic::GroupIncidence& incidence = indexes[i].groups;
        pristine_cells[i] = cell<true>(
            in, pristine, pristine_component, protocols[i], pristine_cache,
            indexes[i].flows, indexes[i].darts,
            [&] { incidence.affected_flows({}, scratch.affected_mark, scratch.affected); },
            indexes[i].pristine_costs, batch, load, scratch, driver_log, counts[0]);
      }
    }

    result.flows_per_scenario = flows.size();
    result.offered_pps = in.offered_pps;
    result.protocols.resize(protocols.size());
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      result.protocols[i].name = protocols[i].name;
      result.protocols[i].quantiles = config.quantiles;
    }
    std::vector<analysis::P2QuantileSet> utilization_q(protocols.size(),
                                                       analysis::P2QuantileSet(config.quantiles));
    std::vector<analysis::P2QuantileSet> stretch_q(protocols.size(),
                                                   analysis::P2QuantileSet(config.quantiles));
    std::vector<analysis::TopK<analysis::StormScenarioRecord>> worst(
        protocols.size(), analysis::TopK<analysis::StormScenarioRecord>(config.top_k));
    const std::size_t group_count = model.catalog().group_count();

    struct WorkerScratch {
      net::StormSample sample;
      graph::ComponentScratch components;
    };
    struct Slot {
      std::vector<CellOutcome> cells;
      std::vector<std::size_t> groups;
      std::size_t failed_edges = 0;
      bool calm = false;
      bool disconnected = false;
    };
    const std::size_t window = executor.default_ordered_window();
    std::vector<Slot> slots(window);
    std::vector<WorkerScratch> scratches(executor.thread_count());
    std::vector<net::Network> networks;
    networks.reserve(executor.thread_count());
    for (std::size_t w = 0; w < executor.thread_count(); ++w) networks.emplace_back(g);

    const sim::SweepExecutor::UnitFn unit_fn = [&](std::size_t unit, sim::WorkerContext& ctx) {
      SpanLog& log = run.logs[1 + ctx.worker()];
      ReplicaCounts& worker_counts = counts[1 + ctx.worker()];
      t_log = &log;
      ScopedSpan cell_span(log, Layer::kCell, unit);
      ctx.rng() = graph::Rng(sim::split_seed(config.seed, unit));
      Slot& slot = slots[unit % window];
      WorkerScratch& ws = scratches[ctx.worker()];
      net::Network& network = networks[ctx.worker()];
      {
        ScopedSpan span(log, Layer::kSample);
        model.sample(ctx.rng(), ws.sample);
      }
      for (const std::size_t gid : ws.sample.groups) {
        if (gid >= group_count) throw std::runtime_error("malformed storm scenario");
      }
      slot.groups.assign(ws.sample.groups.begin(), ws.sample.groups.end());
      slot.failed_edges = ws.sample.failures.size();
      slot.calm = ws.sample.groups.empty();
      slot.disconnected = false;
      slot.cells.resize(protocols.size());
      if (slot.calm) {
        for (std::size_t i = 0; i < protocols.size(); ++i) slot.cells[i] = pristine_cells[i];
        return;
      }
      {
        ScopedSpan span(log, Layer::kFailLink);
        for (const graph::EdgeId e : ws.sample.failures.elements()) network.fail_link(e);
      }
      {
        ScopedSpan span(log, Layer::kComponents);
        slot.disconnected =
            graph::connected_components_into(g, &ws.sample.failures, ws.components) > 1;
      }
      for (std::size_t i = 0; i < protocols.size(); ++i) {
        const traffic::GroupIncidence& incidence = indexes[i].groups;
        slot.cells[i] = cell<true>(
            in, network, ws.components.component, protocols[i], ctx.routes,
            indexes[i].flows, indexes[i].darts,
            [&] {
              incidence.affected_flows(slot.groups, ctx.incidence.affected_mark,
                                       ctx.incidence.affected);
            },
            indexes[i].pristine_costs, ctx.batch, ctx.load, ctx.incidence, log,
            worker_counts);
      }
      ScopedSpan span(log, Layer::kFailLink);
      for (const graph::EdgeId e : ws.sample.failures.elements()) network.restore_link(e);
    };
    const sim::SweepExecutor::ReduceFn reduce_fn = [&](std::size_t unit) {
      ScopedSpan span(*t_log, Layer::kReduce, unit);
      const Slot& slot = slots[unit % window];
      result.failed_groups.add(static_cast<double>(slot.groups.size()));
      result.failed_edges.add(static_cast<double>(slot.failed_edges));
      if (slot.calm) ++result.calm_scenarios;
      if (slot.disconnected) ++result.disconnected_scenarios;
      for (std::size_t i = 0; i < protocols.size(); ++i) {
        const CellOutcome& c = slot.cells[i];
        const traffic::CongestionMetrics& m = c.metrics;
        analysis::StormProtocolResult& p = result.protocols[i];
        p.utilization.add(m.max_utilization);
        p.stretch.add(c.max_stretch);
        utilization_q[i].add(m.max_utilization);
        stretch_q[i].add(c.max_stretch);
        p.delivered_pps += m.delivered_pps;
        p.lost_pps += m.lost_pps;
        p.stranded_pps += m.stranded_pps;
        p.overloaded_links += m.overloaded_links;
        if (m.overloaded_links > 0) ++p.overloaded_scenarios;
        if (m.lost_pps > 0.0) ++p.lossy_scenarios;
        p.rerouted_flows += c.rerouted;
        worst[i].add(m.max_utilization, unit,
                     analysis::StormScenarioRecord{m.max_utilization, c.max_stretch, m.lost_pps,
                                                   m.stranded_pps, slot.groups,
                                                   slot.failed_edges});
      }
    };
    executor.run_ordered(config.scenarios, unit_fn, reduce_fn, config.seed);

    result.scenarios = config.scenarios;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      result.protocols[i].utilization_quantiles = utilization_q[i].estimates();
      result.protocols[i].stretch_quantiles = stretch_q[i].estimates();
      result.protocols[i].worst = worst[i].sorted();
    }
  }
  run.wall_ms = ms_since(start);
  run.digest = analysis::checkpoint_digest(encode(result));
  for (const ReplicaCounts& c : counts) run.counts.merge(c);
  return run;
}

// ---------------------------------------------------------------------------
// Traffic driver: analysis::run_traffic_experiment on the executor,
// incremental mode.

ReplicaRun replay_traffic(const Instance& inst, sim::SweepExecutor& executor) {
  ReplicaRun run;
  run.logs = make_logs(executor.thread_count());
  std::vector<ReplicaCounts> counts(executor.thread_count() + 1);
  SpanLog& driver_log = run.logs[0];
  const graph::Graph& g = inst.graph;
  const std::vector<analysis::NamedFactory>& protocols = inst.protocols;
  const std::span<const graph::EdgeSet> scenarios = inst.scenarios;

  analysis::TrafficExperimentResult result;
  const auto start = Clock::now();
  {
    ScopedSpan sweep(driver_log, Layer::kSweep);
    std::vector<sim::FlowSpec> flows;
    std::vector<double> demands;
    analysis::collect_demand_flows(inst.demand, flows, demands);
    const CellInputs in = cell_inputs(inst, flows, demands);

    std::vector<traffic::FlowIncidenceIndex> indexes(protocols.size());
    {
      ScopedSpan span(driver_log, Layer::kIndexBuild);
      route::ScenarioRoutingCache pristine_cache;
      const net::Network pristine(g);
      for (std::size_t i = 0; i < protocols.size(); ++i) {
        const auto instance = analysis::make_protocol(protocols[i], pristine, pristine_cache);
        indexes[i].build(pristine, *instance, flows, demands);
      }
    }
    std::vector<std::uint64_t> index_darts;
    for (const traffic::FlowIncidenceIndex& index : indexes) {
      index_darts.push_back(pristine_darts(index));
    }

    struct ScenarioPartial {
      std::vector<traffic::CongestionMetrics> metrics;
      std::vector<traffic::LoadMapReduction> loads;
      std::vector<std::size_t> rerouted;
    };
    std::vector<ScenarioPartial> partials(scenarios.size());

    const sim::SweepExecutor::UnitFn unit_fn = [&](std::size_t unit, sim::WorkerContext& ctx) {
      SpanLog& log = run.logs[1 + ctx.worker()];
      ReplicaCounts& worker_counts = counts[1 + ctx.worker()];
      ScopedSpan cell_span(log, Layer::kCell, unit);
      const graph::EdgeSet& failures = scenarios[unit];
      const net::Network network = [&] {
        ScopedSpan span(log, Layer::kFailLink);
        net::Network n(g);
        for (const graph::EdgeId e : failures.elements()) n.fail_link(e);
        return n;
      }();
      const std::vector<std::uint32_t> component = [&] {
        ScopedSpan span(log, Layer::kComponents);
        return graph::connected_components(g, &failures);
      }();

      ScenarioPartial& partial = partials[unit];
      partial.metrics.reserve(protocols.size());
      partial.loads.reserve(protocols.size());
      partial.rerouted.reserve(protocols.size());
      for (std::size_t i = 0; i < protocols.size(); ++i) {
        const traffic::FlowIncidenceIndex& index = indexes[i];
        partial.metrics.push_back(
            cell<false>(in, network, component, protocols[i], ctx.routes, index,
                        index_darts[i],
                        [&] {
                          index.affected_flows(network.failed_links(),
                                               ctx.incidence.affected_mark,
                                               ctx.incidence.affected);
                        },
                        {}, ctx.batch, ctx.load, ctx.incidence, log, worker_counts)
                .metrics);
        partial.rerouted.push_back(ctx.incidence.affected.size());
        ScopedSpan span(log, Layer::kReduce);
        traffic::LoadMapReduction one;
        one.add(ctx.load);
        partial.loads.push_back(std::move(one));
      }
    };
    executor.run(scenarios.size(), unit_fn);

    ScopedSpan span(driver_log, Layer::kReduce);
    result.scenarios = scenarios.size();
    result.flows_per_scenario = flows.size();
    result.mode = analysis::TrafficSweepMode::kIncremental;
    for (const analysis::NamedFactory& p : protocols) {
      analysis::ProtocolTraffic pt;
      pt.name = p.name;
      pt.per_scenario.reserve(scenarios.size());
      result.protocols.push_back(std::move(pt));
    }
    for (ScenarioPartial& partial : partials) {
      for (std::size_t i = 0; i < partial.metrics.size(); ++i) {
        analysis::ProtocolTraffic& agg = result.protocols[i];
        agg.per_scenario.push_back(partial.metrics[i]);
        agg.total_load.merge(partial.loads[i]);
        agg.rerouted_flows += partial.rerouted[i];
      }
      std::vector<traffic::LoadMapReduction>().swap(partial.loads);
    }
  }
  run.wall_ms = ms_since(start);
  for (const ReplicaCounts& c : counts) run.counts.merge(c);

  // The result state sealed through the library's checkpoint encoder: what
  // a traffic checkpoint would cost (the driver has none yet).  The blob is
  // also the digest's input.
  const auto seal_start = Clock::now();
  std::string blob;
  {
    ScopedSpan seal(driver_log, Layer::kCheckpoint);
    blob = encode(result);
  }
  run.checkpoint_ms = ms_since(seal_start);
  run.checkpoint_bytes = blob.size();
  run.digest = analysis::checkpoint_digest(blob);
  return run;
}

}  // namespace

ReplicaRun replay(const Instance& inst, sim::SweepExecutor& executor) {
  return inst.spec->driver == Driver::kStorm ? replay_storm(inst, executor)
                                             : replay_traffic(inst, executor);
}

}  // namespace sweepbench
