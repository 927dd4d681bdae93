#include "analysis/coverage.hpp"

#include <stdexcept>

#include "graph/connectivity.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/parallel_sweep.hpp"

namespace pr::analysis {

using graph::NodeId;

namespace {

/// Flow list of one scenario in canonical (s, t) order, with a parallel
/// recoverability flag per flow (same component in the failed graph).
void collect_classified_flows(const graph::Graph& g, const route::RoutingDb& pristine,
                              const graph::EdgeSet& failures,
                              std::vector<sim::FlowSpec>& flows,
                              std::vector<char>& recoverable) {
  const auto components = graph::connected_components(g, &failures);
  flows.clear();
  recoverable.clear();
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t || !path_affected(pristine, s, t, failures)) continue;
      flows.push_back(sim::FlowSpec{s, t});
      recoverable.push_back(components[s] == components[t] ? 1 : 0);
    }
  }
}

/// Classifies one routed batch into a coverage accumulator.
void classify_batch(const sim::BatchResult& batch, const std::vector<char>& recoverable,
                    ProtocolCoverage& agg) {
  for (std::size_t f = 0; f < batch.size(); ++f) {
    if (batch[f].delivered()) {
      ++agg.delivered;
    } else if (recoverable[f] != 0) {
      ++agg.dropped_reachable;
    } else {
      ++agg.dropped_partitioned;
    }
  }
}

/// The empty result both drivers fill, after rejecting an empty protocol list.
CoverageResult make_result(std::size_t scenarios,
                           const std::vector<NamedFactory>& protocols) {
  if (protocols.empty()) {
    throw std::invalid_argument("run_coverage_experiment: no protocols given");
  }
  CoverageResult result;
  result.scenarios = scenarios;
  for (const auto& p : protocols) {
    result.protocols.push_back(ProtocolCoverage{p.name, 0, 0, 0});
  }
  return result;
}

}  // namespace

CoverageResult run_coverage_experiment(const graph::Graph& g,
                                       std::span<const graph::EdgeSet> scenarios,
                                       const std::vector<NamedFactory>& protocols) {
  CoverageResult result = make_result(scenarios.size(), protocols);
  const route::RoutingDb pristine(g);

  // Reused across scenarios and protocols: once warm, a sweep allocates
  // nothing per trial, and reconverging protocols borrow delta-repaired
  // tables from the cache.
  std::vector<sim::FlowSpec> flows;
  std::vector<char> recoverable;
  sim::BatchResult batch;
  route::ScenarioRoutingCache routing_cache;

  for (const auto& failures : scenarios) {
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);

    collect_classified_flows(g, pristine, failures, flows, recoverable);
    if (flows.empty()) continue;

    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const auto instance = make_protocol(protocols[i], network, routing_cache);
      sim::route_batch(network, *instance, flows, sim::TraceMode::kStats, batch);
      classify_batch(batch, recoverable, result.protocols[i]);
    }
  }
  return result;
}

CoverageResult run_coverage_experiment(const graph::Graph& g,
                                       std::span<const graph::EdgeSet> scenarios,
                                       const std::vector<NamedFactory>& protocols,
                                       sim::SweepExecutor& executor) {
  CoverageResult result = make_result(scenarios.size(), protocols);
  const route::RoutingDb pristine(g);

  // A slot ring of the executor's reorder window: one scenario's per-protocol
  // counts, merged by the ordered reduce in canonical scenario order.
  const std::size_t window = executor.default_ordered_window();
  std::vector<std::vector<ProtocolCoverage>> slots(window);
  const auto unit_fn = [&](std::size_t unit, sim::WorkerContext& ctx) {
    const graph::EdgeSet& failures = scenarios[unit];
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);

    std::vector<ProtocolCoverage>& slot = slots[unit % window];
    slot.assign(protocols.size(), ProtocolCoverage{});
    collect_classified_flows(g, pristine, failures, ctx.flows, ctx.flags);
    if (ctx.flows.empty()) return;

    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const auto instance = make_protocol(protocols[i], network, ctx.routes);
      sim::route_batch(network, *instance, ctx.flows, sim::TraceMode::kStats,
                       ctx.batch);
      classify_batch(ctx.batch, ctx.flags, slot[i]);
    }
  };
  const auto reduce_fn = [&](std::size_t unit) {
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      result.protocols[i].merge(slots[unit % window][i]);
    }
  };
  executor.run_ordered(scenarios.size(), unit_fn, reduce_fn);
  return result;
}

}  // namespace pr::analysis
