// Connectivity analysis: components, bridges, articulation points,
// 2-edge-connectivity.
//
// Packet Re-cycling can survive every single link failure only in a
// 2-edge-connected network (Section 4.2 of the paper): a bridge's failure
// disconnects its endpoints.  That is necessary, not sufficient.  When a
// self-paired link fails (both its darts on one face, see embed/faces.hpp),
// PR can drop traffic whose destination is still reachable: ROADMAP.md's
// radius item found the kAuto embeddings of ISP-128/256/512/1024 doing so
// when one of their 1/1/8/32 self-paired links fails, and its face-dual item
// proposes a rule for which failure sets lose traffic.  Under failure
// combinations the tests confirm delivery between connected endpoints on
// genus-0 embeddings only (see core/pr_protocol.hpp).  The experiment
// harness therefore needs fast residual-connectivity checks to filter
// sampled failure scenarios.  No topology constructor checks
// 2-edge-connectivity at run time: the generators produce it by
// construction, and their tests (generators_test, isp_generator_test,
// synthetic_isp_test) check it with is_two_edge_connected().
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace pr::graph {

/// Component id per node (ids are dense, 0-based, assigned in node order).
/// Edges in `excluded` are treated as absent.
[[nodiscard]] std::vector<std::uint32_t> connected_components(
    const Graph& g, const EdgeSet* excluded = nullptr);

/// Caller-owned scratch for repeated component computations (per-scenario
/// residual-connectivity checks, SRLG risk reports): reusing one scratch
/// across calls makes each computation allocation-free once warm.
struct ComponentScratch {
  std::vector<std::uint32_t> component;  ///< per-node ids after each call
  std::vector<NodeId> fifo;              ///< internal BFS queue
};

/// connected_components() into `scratch.component`; returns the component
/// count.  Identical ids to the allocating overload.
std::size_t connected_components_into(const Graph& g, const EdgeSet* excluded,
                                      ComponentScratch& scratch);

/// True when every node is reachable from every other (vacuously true for the
/// empty graph).  Edges in `excluded` are treated as absent.
[[nodiscard]] bool is_connected(const Graph& g, const EdgeSet* excluded = nullptr);

/// True when `a` and `b` are in the same component of G minus `excluded`.
[[nodiscard]] bool same_component(const Graph& g, NodeId a, NodeId b,
                                  const EdgeSet* excluded = nullptr);

/// All bridges (cut edges).  Multigraph-aware: a parallel pair is never a bridge.
[[nodiscard]] std::vector<EdgeId> bridges(const Graph& g);

/// All articulation points (cut vertices).
[[nodiscard]] std::vector<NodeId> articulation_points(const Graph& g);

/// Connected and bridge-free: the precondition for single-failure coverage.
[[nodiscard]] bool is_two_edge_connected(const Graph& g);

/// Connected and articulation-free (and at least 3 nodes): "2-connected" in
/// the paper's terminology.
[[nodiscard]] bool is_biconnected(const Graph& g);

/// Partition of the edges into biconnected components (blocks).  Used by the
/// planar embedder, which embeds blocks independently and merges them at cut
/// vertices.
[[nodiscard]] std::vector<std::vector<EdgeId>> biconnected_components(const Graph& g);

}  // namespace pr::graph
