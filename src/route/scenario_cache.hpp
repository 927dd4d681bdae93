// Per-sweep-worker cache of delta-repaired routing tables.
//
// Failure sweeps ask the same question per scenario -- "what are the
// post-convergence tables with these links down?" -- and used to answer it by
// constructing a fresh RoutingDb (n full Dijkstras plus three n^2 column
// allocations) every time.  This cache owns ONE RoutingDb built on the
// pristine topology and answers each scenario by RoutingDb::rebuild(): only
// destination trees that actually use a failed edge are repaired, from the
// orphaned-subtree frontier, with results bit-identical to the from-scratch
// build.  One cache lives per sweep worker (sim::WorkerContext), per serial
// driver and per event-driven IGP (route::LinkStateIgp, which repairs to each
// recomputing router's known failures and copies that router's row into its
// FIB), so no synchronisation is needed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/spf_workspace.hpp"
#include "route/routing_db.hpp"

namespace pr::route {

class ScenarioRoutingCache {
 public:
  ScenarioRoutingCache() = default;

  ScenarioRoutingCache(const ScenarioRoutingCache&) = delete;
  ScenarioRoutingCache& operator=(const ScenarioRoutingCache&) = delete;
  ScenarioRoutingCache(ScenarioRoutingCache&&) = default;
  ScenarioRoutingCache& operator=(ScenarioRoutingCache&&) = default;

  /// Tables equal (bit for bit) to RoutingDb(g, &failures, kind), produced by
  /// delta repair of the cached pristine db.  The first call for a given
  /// (graph, kind) pays one full pristine build; subsequent calls pay only
  /// the repair of the trees the failure set touches, and repeating the
  /// previous failure set verbatim is free.  The returned reference is owned
  /// by the cache and is overwritten by the next call with a different
  /// failure set -- borrow it for the current scenario only.
  [[nodiscard]] const RoutingDb& tables(
      const graph::Graph& g, const graph::EdgeSet& failures,
      DiscriminatorKind kind = DiscriminatorKind::kHops);

  /// Instrumentation for benches and tests.
  [[nodiscard]] std::uint64_t pristine_builds() const noexcept {
    return pristine_builds_;
  }
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  // Keyed by (address, structure_id): the id defeats address reuse -- a sweep
  // over successive topologies can see a new Graph allocated where a
  // destroyed one lived, and serving the old tables there would read out of
  // bounds.  It also invalidates on mutation of the same object.
  const graph::Graph* graph_ = nullptr;
  std::uint64_t graph_structure_id_ = 0;
  DiscriminatorKind kind_ = DiscriminatorKind::kHops;
  std::unique_ptr<RoutingDb> db_;
  graph::SpfWorkspace workspace_;
  /// The failure set the db currently reflects (element order included, so
  /// the comparison is exact and allocation-free on the hit path).
  std::vector<graph::EdgeId> current_failures_;
  std::uint64_t pristine_builds_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace pr::route
