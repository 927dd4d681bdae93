#include "analysis/stretch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/forwarding_engine.hpp"
#include "sim/parallel_sweep.hpp"

namespace pr::analysis {

using graph::NodeId;

std::vector<double> ccdf(std::span<const double> samples, std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  if (samples.empty()) {
    out.assign(xs.size(), 0.0);
    return out;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  for (double x : xs) {
    const auto first_greater = std::upper_bound(sorted.begin(), sorted.end(), x);
    const auto count = static_cast<double>(sorted.end() - first_greater);
    out.push_back(count / static_cast<double>(sorted.size()));
  }
  return out;
}

bool path_affected(const route::RoutingDb& routes, NodeId s, NodeId t,
                   const graph::EdgeSet& failures) {
  if (s == t || !routes.reachable(s, t)) return false;
  NodeId v = s;
  while (v != t) {
    const graph::DartId d = routes.next_dart(v, t);
    if (failures.contains(graph::dart_edge(d))) return true;
    v = routes.graph().dart_head(d);
  }
  return false;
}

double ProtocolStretch::max_finite_stretch() const {
  double best = 0;
  for (double s : stretches) {
    if (std::isfinite(s)) best = std::max(best, s);
  }
  return best;
}

double ProtocolStretch::mean_finite_stretch() const {
  double sum = 0;
  std::size_t n = 0;
  for (double s : stretches) {
    if (std::isfinite(s)) {
      sum += s;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

namespace {

/// Flow list of one scenario in the canonical (s, t) order every sweep uses:
/// all ordered pairs whose pristine path crosses a failed edge.
void collect_affected_flows(const graph::Graph& g, const route::RoutingDb& pristine,
                            const graph::EdgeSet& failures,
                            std::vector<sim::FlowSpec>& flows,
                            std::vector<double>& base_costs) {
  flows.clear();
  base_costs.clear();
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t || !path_affected(pristine, s, t, failures)) continue;
      flows.push_back(sim::FlowSpec{s, t});
      base_costs.push_back(pristine.cost(s, t));
    }
  }
}

/// The empty result both drivers fill, after rejecting an empty protocol list.
StretchExperimentResult make_result(std::size_t scenarios,
                                    const std::vector<NamedFactory>& protocols) {
  if (protocols.empty()) {
    throw std::invalid_argument("run_stretch_experiment: no protocols given");
  }
  StretchExperimentResult result;
  result.scenarios = scenarios;
  result.protocols.reserve(protocols.size());
  for (const auto& p : protocols) result.protocols.push_back(ProtocolStretch{p.name, {}, 0, 0});
  return result;
}

}  // namespace

StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols) {
  StretchExperimentResult result = make_result(scenarios.size(), protocols);
  const route::RoutingDb pristine(g);

  // Reused across scenarios and protocols: once warm, a sweep allocates
  // nothing per trial (the point of the stats-only batched engine), and
  // reconverging protocols borrow delta-repaired tables from the cache
  // instead of rebuilding n Dijkstras per scenario.
  std::vector<sim::FlowSpec> flows;
  std::vector<double> base_costs;
  sim::BatchResult batch;
  route::ScenarioRoutingCache routing_cache;

  for (const auto& failures : scenarios) {
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);

    collect_affected_flows(g, pristine, failures, flows, base_costs);
    result.affected_pairs += flows.size();
    if (flows.empty()) continue;

    // Fresh protocol instances see this scenario's link state at build time
    // (ReconvergedRouting borrows its post-convergence tables here).
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const auto instance = make_protocol(protocols[i], network, routing_cache);
      sim::route_batch(network, *instance, flows, sim::TraceMode::kStats, batch);
      auto& agg = result.protocols[i];
      for (std::size_t f = 0; f < batch.size(); ++f) {
        if (batch[f].delivered()) {
          ++agg.delivered;
          agg.stretches.push_back(batch[f].cost / base_costs[f]);
        } else {
          ++agg.dropped;
          agg.stretches.push_back(std::numeric_limits<double>::infinity());
        }
      }
    }
  }
  return result;
}

StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor) {
  StretchExperimentResult result = make_result(scenarios.size(), protocols);
  const route::RoutingDb pristine(g);

  // A slot ring of the executor's reorder window: one scenario's affected
  // count and per-protocol samples, held from its unit function until its
  // reduce appends them in canonical scenario order -- the serial sweep's
  // sample sequence exactly.
  struct Slot {
    std::size_t affected = 0;
    std::vector<std::size_t> delivered;          // per protocol
    std::vector<std::vector<double>> stretches;  // per protocol, in flow order
  };
  const std::size_t window = executor.default_ordered_window();
  std::vector<Slot> slots(window);
  const auto unit_fn = [&](std::size_t unit, sim::WorkerContext& ctx) {
    const graph::EdgeSet& failures = scenarios[unit];
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);

    collect_affected_flows(g, pristine, failures, ctx.flows, ctx.base_costs);
    Slot& slot = slots[unit % window];
    slot.affected = ctx.flows.size();
    slot.delivered.assign(protocols.size(), 0);
    slot.stretches.resize(protocols.size());
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      auto& samples = slot.stretches[i];
      samples.clear();
      if (ctx.flows.empty()) continue;
      const auto instance = make_protocol(protocols[i], network, ctx.routes);
      sim::route_batch(network, *instance, ctx.flows, sim::TraceMode::kStats,
                       ctx.batch);
      for (std::size_t f = 0; f < ctx.batch.size(); ++f) {
        if (ctx.batch[f].delivered()) {
          ++slot.delivered[i];
          samples.push_back(ctx.batch[f].cost / ctx.base_costs[f]);
        } else {
          samples.push_back(std::numeric_limits<double>::infinity());
        }
      }
    }
  };
  const auto reduce_fn = [&](std::size_t unit) {
    const Slot& slot = slots[unit % window];
    result.affected_pairs += slot.affected;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      auto& agg = result.protocols[i];
      agg.delivered += slot.delivered[i];
      agg.dropped += slot.stretches[i].size() - slot.delivered[i];
      agg.stretches.insert(agg.stretches.end(), slot.stretches[i].begin(),
                           slot.stretches[i].end());
    }
  };
  executor.run_ordered(scenarios.size(), unit_fn, reduce_fn);
  return result;
}

}  // namespace pr::analysis
