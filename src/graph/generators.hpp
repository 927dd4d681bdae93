// Synthetic graph generators used by property tests, ablation benches and the
// embedding-quality studies.  All generators produce simple undirected graphs
// with unit weights unless stated otherwise, and all randomness flows through
// the caller-provided Rng.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace pr::graph {

/// Cycle on n >= 3 nodes (the smallest 2-edge-connected family).
[[nodiscard]] Graph ring(std::size_t n);

/// Complete graph K_n (n >= 2).
[[nodiscard]] Graph complete(std::size_t n);

/// rows x cols grid; `wrap` adds the toroidal wrap-around links (making a
/// 4-regular torus, the classic genus-1 cellular-embedding example).
[[nodiscard]] Graph grid(std::size_t rows, std::size_t cols, bool wrap = false);

/// Torus == wrapped grid (requires rows >= 3 and cols >= 3 so the wrap edges
/// are not parallel duplicates).
[[nodiscard]] Graph torus(std::size_t rows, std::size_t cols);

/// Erdos-Renyi G(n, p).  The result may be disconnected; callers that need
/// connectivity should test for it or use random_two_edge_connected.
[[nodiscard]] Graph erdos_renyi(std::size_t n, double p, Rng& rng);

/// Waxman geometric random graph on the unit square:
/// P(u~v) = alpha * exp(-dist(u,v) / (beta * sqrt(2))).  A common model for
/// router-level ISP topologies.
[[nodiscard]] Graph waxman(std::size_t n, double alpha, double beta, Rng& rng);

/// Random 2-edge-connected graph: a Hamiltonian ring plus `extra_edges`
/// distinct random chords.  This is the workhorse of the PR property suites:
/// PR needs 2-edge-connectivity to survive every single failure, though that
/// is not sufficient -- an embedding with a self-paired link can still drop
/// reachable traffic (see graph/connectivity.hpp and ROADMAP.md's radius and
/// face-dual items).
[[nodiscard]] Graph random_two_edge_connected(std::size_t n, std::size_t extra_edges,
                                              Rng& rng);

/// Random outerplanar 2-edge-connected graph: a Hamiltonian ring plus up to
/// `chords` pairwise non-crossing chords (fewer when the sampler cannot place
/// more).  Outerplanar graphs are always planar, making this the generator
/// for the genus-0 guarantee suites.
[[nodiscard]] Graph random_outerplanar(std::size_t n, std::size_t chords, Rng& rng);

/// Parameters of the hierarchical ISP generator.  The defaults give a small
/// carrier-like network (~12 core + 36 aggregation + 216 edge routers);
/// benches and the backbone suites scale the per-tier counts up to the 1k-10k
/// regime.  Total nodes = core * (1 + aggs_per_core * (1 + edges_per_agg)).
struct IspParams {
  std::size_t core = 12;             ///< backbone routers (>= 3)
  std::size_t aggs_per_core = 3;     ///< aggregation routers homed per core
  std::size_t edges_per_agg = 6;     ///< access routers per aggregation
  std::size_t core_extra_chords = 6; ///< preferential core chords beyond the ring
  double agg_cross_link_prob = 0.3;  ///< chance an aggregation peers laterally
  Weight core_weight = 1.0;          ///< backbone link weight
  Weight agg_weight = 2.0;           ///< aggregation uplink weight
  Weight edge_weight = 4.0;          ///< access uplink weight
};

/// A generated hierarchy: node ids are tier-contiguous -- cores first
/// ([0, core_count)), then aggregations, then edge routers -- with labels
/// "c<i>" / "a<i>" / "e<i>".
struct IspTopology {
  Graph graph;
  std::size_t core_count = 0;
  std::size_t aggregation_count = 0;
  std::size_t edge_router_count = 0;
};

/// Hierarchical ISP topology in the style of Topology-Zoo carrier maps:
/// a 2-edge-connected core (ring + preferential-attachment chords, giving the
/// heavy-tailed backbone degrees real ISPs show), aggregation routers each
/// dual-homed to two distinct cores, and edge routers each dual-homed to two
/// distinct aggregations.  Every tier attaches by two disjoint uplinks, so
/// the whole graph is 2-edge-connected by construction -- the precondition of
/// the paper's single-failure guarantee.  Deterministic for a given (params,
/// rng state).
[[nodiscard]] IspTopology hierarchical_isp(const IspParams& params, Rng& rng);

/// IspParams whose tier counts multiply out to roughly `approx_nodes` total
/// routers (>= 27), keeping carrier-like tier ratios.  The shared sizing
/// helper of bench_backbone and the backbone test suites.
[[nodiscard]] IspParams sized_isp_params(std::size_t approx_nodes);

/// Petersen graph: the classic small non-planar (genus 1) test case.
[[nodiscard]] Graph petersen();

/// K5 and K3,3: the Kuratowski minors, used to validate the planarity test.
[[nodiscard]] Graph k5();
[[nodiscard]] Graph k33();

}  // namespace pr::graph
