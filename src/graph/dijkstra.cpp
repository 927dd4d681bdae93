#include "graph/dijkstra.hpp"

#include <algorithm>
#include <limits>

#include "graph/spf_workspace.hpp"

namespace pr::graph {

bool ShortestPathTree::reachable(NodeId v) const {
  return v < dist.size() && dist[v] < kUnreachable;
}

ShortestPathTree shortest_paths_to(const Graph& g, NodeId destination,
                                   const EdgeSet* excluded) {
  const std::size_t n = g.node_count();
  ShortestPathTree spt;
  spt.destination = destination;
  spt.dist.resize(n);
  spt.hops.resize(n);
  spt.next_dart.resize(n);
  SpfWorkspace workspace;
  workspace.full_build(g, destination, excluded, spt.dist.data(), spt.hops.data(),
                       spt.next_dart.data());
  return spt;
}

std::uint32_t hop_diameter(const Graph& g) {
  // Unit-cost search independent of configured weights.
  std::uint32_t best = 0;
  const std::size_t n = g.node_count();
  std::vector<std::uint32_t> depth(n);
  std::vector<NodeId> fifo(n);
  for (NodeId s = 0; s < n; ++s) {
    std::fill(depth.begin(), depth.end(), std::numeric_limits<std::uint32_t>::max());
    std::size_t head = 0;
    std::size_t tail = 0;
    depth[s] = 0;
    fifo[tail++] = s;
    while (head < tail) {
      const NodeId v = fifo[head++];
      for (DartId d : g.out_darts(v)) {
        const NodeId u = g.dart_head(d);
        if (depth[u] == std::numeric_limits<std::uint32_t>::max()) {
          depth[u] = depth[v] + 1;
          best = std::max(best, depth[u]);
          fifo[tail++] = u;
        }
      }
    }
  }
  return best;
}

}  // namespace pr::graph
