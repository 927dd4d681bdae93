// Failure injection: scenario sampling for the stretch experiments and
// time-driven failure processes (storms, flapping) for the event simulator.
//
// The paper's Figure 2 evaluates (a-c) every single link failure and (d-f)
// random multi-failure combinations; its Section 7 discusses link flapping,
// handled with a hold-down timer so that a packet that saw a link down never
// sees it up again while still cycle-following.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rng.hpp"
#include "net/event_sim.hpp"
#include "net/network.hpp"

namespace pr::net {

/// All single-link failure scenarios (one EdgeSet per edge).
[[nodiscard]] std::vector<graph::EdgeSet> all_single_failures(const Graph& g);

/// All single-node failure scenarios: for each non-isolated node, the edge
/// set of its incident links (the paper's node-failure model, Section 4).
/// The failed node itself becomes unreachable; pairs involving it classify
/// as dropped_partitioned in the stretch experiment.
[[nodiscard]] std::vector<graph::EdgeSet> all_node_failures(const Graph& g);

/// Uniformly samples up to `scenarios` distinct k-subsets of edges whose
/// removal keeps the graph connected (the regime of the paper's delivery
/// claim).  Small subset spaces are enumerated exactly, so the result may
/// contain fewer than `scenarios` sets when fewer qualify.  Throws
/// std::invalid_argument when no qualifying subset exists (or none is found
/// within the attempt budget on large spaces).
[[nodiscard]] std::vector<graph::EdgeSet> sample_connected_failures(
    const Graph& g, std::size_t k, std::size_t scenarios, graph::Rng& rng,
    std::size_t max_attempts_per_scenario = 10000);

/// Samples k-subsets without the connectivity filter (used by the coverage
/// bench, which studies what happens when destinations become unreachable).
[[nodiscard]] std::vector<graph::EdgeSet> sample_any_failures(const Graph& g,
                                                              std::size_t k,
                                                              std::size_t scenarios,
                                                              graph::Rng& rng);

/// Every k-subset of edges, in lexicographic order.  Exponential; intended
/// for exhaustive small-graph property tests only.
[[nodiscard]] std::vector<graph::EdgeSet> enumerate_failures(const Graph& g,
                                                             std::size_t k);

/// Shared-risk link groups: links that fail together because they share a
/// physical resource (a conduit, a fibre span, a line card).  SRLG scenarios
/// are how "mission-critical" operators actually reason about the correlated
/// multi-failures the paper's multi-failure guarantee targets.
class SrlgCatalog {
 public:
  /// `g` must outlive the catalog.
  explicit SrlgCatalog(const Graph& g) : graph_(&g) {}

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Registers a group; members must be valid, duplicates are rejected.
  /// Returns the group id.
  std::size_t add_group(std::vector<graph::EdgeId> members);

  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }
  [[nodiscard]] std::span<const graph::EdgeId> members(std::size_t group) const {
    return groups_.at(group);
  }

  /// The group as a failure scenario usable by the experiment harness.
  [[nodiscard]] graph::EdgeSet scenario(std::size_t group) const;

  /// Applies / clears the whole group on a network.
  void fail_group(Network& net, std::size_t group) const;
  void restore_group(Network& net, std::size_t group) const;

  /// Groups whose loss would disconnect the network -- the risk report an
  /// operator wants before buying into any FRR scheme.
  [[nodiscard]] std::vector<std::size_t> disconnecting_groups() const;

 private:
  const Graph* graph_;
  std::vector<std::vector<graph::EdgeId>> groups_;
};

/// Random geography-flavoured SRLGs: each group gathers `max_size` edges
/// around a randomly chosen anchor node (links sharing a conduit out of the
/// same site).  Deterministic in `rng`.
[[nodiscard]] SrlgCatalog random_srlgs(const Graph& g, std::size_t groups,
                                       std::size_t max_size, graph::Rng& rng);

/// Section 7 flap damping: requested restores take effect only after the link
/// has stayed failed for `hold_down` seconds; a new failure cancels a pending
/// restore.  Failures always apply immediately.
class FlapDamper {
 public:
  FlapDamper(Simulator& sim, Network& net, SimTime hold_down);

  /// Applies the failure now and cancels any pending restore of `e`.
  void fail(graph::EdgeId e);

  /// Requests a restore: the link comes back at now + hold_down unless it
  /// fails again first.
  void request_restore(graph::EdgeId e);

  [[nodiscard]] SimTime hold_down() const noexcept { return hold_down_; }

 private:
  Simulator* sim_;
  Network* net_;
  SimTime hold_down_;
  /// Generation counter per edge; a scheduled restore only fires if its
  /// generation still matches (i.e. no newer failure intervened).
  std::vector<std::uint64_t> generation_;
};

}  // namespace pr::net
