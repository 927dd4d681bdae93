// Shortest-path trees toward a destination.
//
// Packet Re-cycling routes packets *to* destinations, so the natural object is
// the reverse shortest-path tree rooted at the destination: for every node v
// it stores the first dart of v's shortest path toward the destination, the
// total cost, and the hop count.  The hop count doubles as the paper's default
// "distance discriminator" (Section 4.3); the weighted cost is the alternative
// discriminator evaluated in ablation A4.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace pr::graph {

/// Reverse shortest-path tree: per-node next dart / cost / hops toward `destination`.
struct ShortestPathTree {
  NodeId destination = kInvalidNode;
  /// dist[v] = weighted cost of the shortest v -> destination path
  /// (infinity when unreachable).
  std::vector<Weight> dist;
  /// hops[v] = number of links on that same path (ties broken toward fewer hops).
  std::vector<std::uint32_t> hops;
  /// next_dart[v] = first dart on the path (kInvalidDart at the destination and
  /// at unreachable nodes).
  std::vector<DartId> next_dart;

  [[nodiscard]] bool reachable(NodeId v) const;
};

/// Dijkstra from `destination` over the undirected graph, optionally ignoring
/// the edges in `excluded` (the failure set).  Deterministic: ties are broken
/// first by hop count, then by smaller neighbour id.
///
/// This is a thin reference wrapper over SpfWorkspace::full_build (one
/// workspace + tree allocation per call); hot paths that build many trees
/// should hold a workspace and write into their own columns instead.
[[nodiscard]] ShortestPathTree shortest_paths_to(const Graph& g, NodeId destination,
                                                 const EdgeSet* excluded = nullptr);

/// Hop-count diameter: max hops of any shortest path, with unit-cost search.
[[nodiscard]] std::uint32_t hop_diameter(const Graph& g);

}  // namespace pr::graph
