// Rotation systems: the combinatorial description of a cellular embedding.
//
// A rotation system assigns to every node a cyclic order of its out-darts
// (interfaces).  By the Heffter-Edmonds principle, every rotation system of a
// connected graph corresponds to exactly one cellular embedding of the graph
// on an orientable closed surface, whose faces are recovered by tracing the
// face-successor permutation
//
//     phi(d) = sigma_head(d)( reverse(d) )
//
// i.e. "arrive at the far end of d, turn to the next interface after the one
// you arrived on".  This permutation is precisely the paper's cycle-following
// rule (Section 4.1): the cycle-following table at a router maps the incoming
// interface d to the outgoing interface phi(d), and the complementary
// interface of a failed outgoing dart o is phi(reverse(o)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace pr::embed {

using graph::DartId;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Cyclic order of out-darts around every node; sigma and phi in O(1).
class RotationSystem {
 public:
  /// Rotation given by edge insertion order (arbitrary but deterministic).
  [[nodiscard]] static RotationSystem identity(const Graph& g);

  /// Uniformly random rotation at every node; used by ablation A3 and by the
  /// genus-minimising local search as a restart point.
  [[nodiscard]] static RotationSystem random(const Graph& g, graph::Rng& rng);

  /// Builds from explicit per-node dart orders.  `orders[v]` must be a
  /// permutation of g.out_darts(v); throws std::invalid_argument otherwise.
  [[nodiscard]] static RotationSystem from_orders(const Graph& g,
                                                  std::vector<std::vector<DartId>> orders);

  /// Convenience for simple graphs: per-node order given as neighbour node
  /// ids.  Rejects multigraphs (ambiguous) and malformed orders.
  [[nodiscard]] static RotationSystem from_neighbor_orders(
      const Graph& g, const std::vector<std::vector<NodeId>>& neighbor_orders);

  /// sigma: the next out-dart after `d` in the cyclic order around tail(d).
  [[nodiscard]] DartId next_at_node(DartId d) const { return sigma_next_.at(d); }
  /// sigma^-1.
  [[nodiscard]] DartId prev_at_node(DartId d) const { return sigma_prev_.at(d); }

  /// phi: the face successor -- also the paper's cycle-following interface for
  /// a packet that arrived over `d`.
  [[nodiscard]] DartId face_successor(DartId d) const {
    return sigma_next_.at(graph::reverse(d));
  }

  /// The cyclic order at `v` (starting point is arbitrary but stable).
  [[nodiscard]] std::span<const DartId> order_at(NodeId v) const {
    return orders_.at(v);
  }

  /// Replaces the cyclic order at `v`; validates it is a permutation of the
  /// node's out-darts.
  void set_order(NodeId v, std::vector<DartId> order);

  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Full internal consistency check (permutations intact); throws on failure.
  void validate() const;

 private:
  RotationSystem(const Graph& g, std::vector<std::vector<DartId>> orders);

  void rebuild_node(NodeId v);

  const Graph* graph_ = nullptr;
  std::vector<std::vector<DartId>> orders_;
  std::vector<DartId> sigma_next_;
  std::vector<DartId> sigma_prev_;
};

}  // namespace pr::embed
