// Unit tests for reverse shortest-path trees.
#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace pr::graph {
namespace {

Graph line_graph(std::size_t n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(Dijkstra, LineGraphDistances) {
  const Graph g = line_graph(5);
  const auto spt = shortest_paths_to(g, 4);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(spt.dist[v], 4.0 - v);
    EXPECT_EQ(spt.hops[v], 4U - v);
  }
  EXPECT_EQ(spt.next_dart[4], kInvalidDart);
}

TEST(Dijkstra, NextDartPointsTowardDestination) {
  const Graph g = line_graph(4);
  const auto spt = shortest_paths_to(g, 3);
  for (NodeId v = 0; v < 3; ++v) {
    const DartId d = spt.next_dart[v];
    ASSERT_NE(d, kInvalidDart);
    EXPECT_EQ(g.dart_tail(d), v);
    EXPECT_EQ(g.dart_head(d), v + 1);
  }
}

TEST(Dijkstra, WeightedShorterPathWins) {
  // 0 -1- 1 -1- 2  versus direct 0 -5- 2 : two-hop route is cheaper.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  const auto spt = shortest_paths_to(g, 2);
  EXPECT_DOUBLE_EQ(spt.dist[0], 2.0);
  EXPECT_EQ(spt.hops[0], 2U);
  EXPECT_EQ(g.dart_head(spt.next_dart[0]), 1U);
}

TEST(Dijkstra, TieBrokenTowardFewerHops) {
  // Both routes cost 2, but the direct edge has fewer hops.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 2.0);
  const auto spt = shortest_paths_to(g, 2);
  EXPECT_DOUBLE_EQ(spt.dist[0], 2.0);
  EXPECT_EQ(spt.hops[0], 1U);
  EXPECT_EQ(g.dart_head(spt.next_dart[0]), 2U);
}

TEST(Dijkstra, ExcludedEdgesAreAvoided) {
  Graph g = ring(4);  // 0-1-2-3-0
  EdgeSet down(g.edge_count());
  down.insert(*g.find_edge(0, 3));
  const auto spt = shortest_paths_to(g, 3, &down);
  EXPECT_DOUBLE_EQ(spt.dist[0], 3.0);  // forced the long way round
  EXPECT_EQ(g.dart_head(spt.next_dart[0]), 1U);
}

TEST(Dijkstra, UnreachableMarked) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto spt = shortest_paths_to(g, 0);
  EXPECT_TRUE(spt.reachable(1));
  EXPECT_FALSE(spt.reachable(2));
  EXPECT_EQ(spt.next_dart[2], kInvalidDart);
}

TEST(Dijkstra, DestinationOutOfRangeThrows) {
  const Graph g = ring(3);
  EXPECT_THROW(shortest_paths_to(g, 99), std::out_of_range);
}

TEST(Dijkstra, ParallelEdgesUseCheapest) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  const EdgeId cheap = g.add_edge(0, 1, 1.0);
  const auto spt = shortest_paths_to(g, 1);
  EXPECT_DOUBLE_EQ(spt.dist[0], 1.0);
  EXPECT_EQ(dart_edge(spt.next_dart[0]), cheap);
}

TEST(AllTrees, OneTreePerDestination) {
  const Graph g = ring(5);
  for (NodeId t = 0; t < 5; ++t) {
    const auto tree = shortest_paths_to(g, t);
    EXPECT_EQ(tree.destination, t);
    EXPECT_DOUBLE_EQ(tree.dist[t], 0.0);
  }
}

TEST(Diameter, RingAndGrid) {
  EXPECT_EQ(hop_diameter(ring(6)), 3U);
  EXPECT_EQ(hop_diameter(grid(3, 3)), 4U);
}

TEST(Diameter, HopDiameterIgnoresWeights) {
  Graph g = ring(6);
  for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_edge_weight(e, 10.0);
  EXPECT_EQ(hop_diameter(g), 3U);
}

}  // namespace
}  // namespace pr::graph
