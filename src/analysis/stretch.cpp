#include "analysis/stretch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/connectivity.hpp"
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

/// The empty result both drivers fill, after rejecting an empty protocol list.
StretchExperimentResult make_result(std::size_t scenarios,
                                    const std::vector<NamedFactory>& protocols) {
  if (protocols.empty()) {
    throw std::invalid_argument("run_stretch_experiment: no protocols given");
  }
  StretchExperimentResult result;
  result.scenarios = scenarios;
  result.protocols.reserve(protocols.size());
  for (const auto& p : protocols) {
    result.protocols.push_back(ProtocolStretch{p.name, {}, 0, 0, 0});
  }
  return result;
}

/// Prices one scenario into `into`, both drivers' only per-scenario code.  It
/// fails the scenario's links on a network of its own, collects the affected
/// pairs -- every ordered pair whose pristine path crosses a failed link, in
/// the canonical (s, t) order every sweep uses -- routes them under each
/// protocol, and appends each packet's sample and outcome class to that
/// protocol's entry of `into`.  `ctx` lends the reusable flow, cost, flag and
/// batch buffers and the routing cache that reconverging protocols borrow
/// delta-repaired tables from.
void price_scenario(const graph::Graph& g, const route::RoutingDb& pristine,
                    const graph::EdgeSet& failures,
                    const std::vector<NamedFactory>& protocols, sim::WorkerContext& ctx,
                    StretchExperimentResult& into) {
  net::Network network(g);
  for (graph::EdgeId e : failures.elements()) network.fail_link(e);

  // A dropped packet whose endpoints share a residual component was
  // recoverable; ctx.flags holds that fact per flow.
  const auto components = graph::connected_components(g, &failures);
  ctx.flows.clear();
  ctx.base_costs.clear();
  ctx.flags.clear();
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t || !path_affected(pristine, s, t, failures)) continue;
      ctx.flows.push_back(sim::FlowSpec{s, t});
      ctx.base_costs.push_back(pristine.cost(s, t));
      ctx.flags.push_back(components[s] == components[t] ? 1 : 0);
    }
  }
  into.affected_pairs += ctx.flows.size();
  if (ctx.flows.empty()) return;

  // Fresh protocol instances see this scenario's link state at build time
  // (ReconvergedRouting borrows its post-convergence tables here).
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const auto instance = make_protocol(protocols[i], network, ctx.routes);
    sim::route_batch(network, *instance, ctx.flows, sim::TraceMode::kStats, ctx.batch);
    ProtocolStretch& agg = into.protocols[i];
    for (std::size_t f = 0; f < ctx.batch.size(); ++f) {
      if (ctx.batch[f].delivered()) {
        ++agg.delivered;
        agg.stretches.push_back(ctx.batch[f].cost / ctx.base_costs[f]);
      } else {
        ++(ctx.flags[f] != 0 ? agg.dropped_reachable : agg.dropped_partitioned);
        agg.stretches.push_back(std::numeric_limits<double>::infinity());
      }
    }
  }
}

}  // namespace

StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols) {
  StretchExperimentResult result = make_result(scenarios.size(), protocols);
  const route::RoutingDb pristine(g);
  // The executor's per-worker buffers, reused across scenarios and protocols:
  // once warm, the sweep allocates nothing per routed packet.
  sim::WorkerContext ctx;
  for (const auto& failures : scenarios) {
    price_scenario(g, pristine, failures, protocols, ctx, result);
  }
  return result;
}

StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor) {
  StretchExperimentResult result = make_result(scenarios.size(), protocols);
  const route::RoutingDb pristine(g);

  // A slot ring of the executor's reorder window: one scenario's priced
  // pairs, held from its unit function until its reduce appends them in
  // canonical scenario order -- the serial sweep's sample sequence exactly.
  const std::size_t window = executor.default_ordered_window();
  std::vector<StretchExperimentResult> slots(window);
  const auto unit_fn = [&](std::size_t unit, sim::WorkerContext& ctx) {
    StretchExperimentResult& slot = slots[unit % window];
    slot.affected_pairs = 0;
    slot.protocols.resize(protocols.size());
    for (ProtocolStretch& p : slot.protocols) {
      p.stretches.clear();  // keeps the capacity for the slot's next scenario
      p.delivered = p.dropped_reachable = p.dropped_partitioned = 0;
    }
    price_scenario(g, pristine, scenarios[unit], protocols, ctx, slot);
  };
  const auto reduce_fn = [&](std::size_t unit) {
    const StretchExperimentResult& slot = slots[unit % window];
    result.affected_pairs += slot.affected_pairs;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      ProtocolStretch& agg = result.protocols[i];
      const ProtocolStretch& part = slot.protocols[i];
      agg.stretches.insert(agg.stretches.end(), part.stretches.begin(),
                           part.stretches.end());
      agg.delivered += part.delivered;
      agg.dropped_reachable += part.dropped_reachable;
      agg.dropped_partitioned += part.dropped_partitioned;
    }
  };
  executor.run_ordered(scenarios.size(), unit_fn, reduce_fn);
  return result;
}

}  // namespace pr::analysis
