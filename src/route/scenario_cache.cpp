#include "route/scenario_cache.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace pr::route {

const RoutingDb& ScenarioRoutingCache::tables(const graph::Graph& g,
                                              const graph::EdgeSet& failures,
                                              DiscriminatorKind kind) {
  if (db_ == nullptr || graph_ != &g || graph_structure_id_ != g.structure_id() ||
      kind_ != kind) {
    db_ = std::make_unique<RoutingDb>(g, nullptr, kind);
    graph_ = &g;
    graph_structure_id_ = g.structure_id();
    kind_ = kind;
    current_failures_.clear();
    ++pristine_builds_;
    obs::count(obs::Counter::kRouteCachePristineBuilds);
    if (failures.empty()) return *db_;
  } else {
    const auto elements = failures.elements();
    if (std::equal(elements.begin(), elements.end(), current_failures_.begin(),
                   current_failures_.end())) {
      ++hits_;
      obs::count(obs::Counter::kRouteCacheHits);
      return *db_;
    }
  }
  {
    obs::PhaseTimer timer(obs::Phase::kSpfRebuild);
    db_->rebuild(failures, workspace_);
  }
  const auto elements = failures.elements();
  current_failures_.assign(elements.begin(), elements.end());
  ++rebuilds_;
  obs::count(obs::Counter::kRouteCacheRebuilds);
  return *db_;
}

}  // namespace pr::route
