// Destination-indexed routing state: the conventional shortest-path tables
// every compared protocol starts from, extended with the paper's extra
// routing-table column (Section 4.3) -- the *distance discriminator*, a
// strictly increasing function of the links along the shortest path to each
// destination.  Two candidate functions from the paper are supported: hop
// count (default, needs ~log2(diameter) header bits) and weighted path cost
// (ablation A4, needs integer link weights to be header-encodable).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/spf_workspace.hpp"

namespace pr::route {

using graph::DartId;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;
using graph::Weight;

enum class DiscriminatorKind : std::uint8_t {
  kHops,          ///< number of links to the destination (paper's default)
  kWeightedCost,  ///< sum of link weights (requires integral weights)
};

/// How rebuild() drives the per-destination tree repairs of a scenario.
enum class RepairDrive : std::uint8_t {
  /// Batched fast path (default): orphan subtrees discovered by descending
  /// the pristine children index (O(region) per tree, epoch-stamped scratch),
  /// and restores replay only the rows the previous scenario changed.
  /// Bit-identical output.
  kBatchedTrees,
  /// The pre-backbone scenario-at-a-time path: per-tree memoised-walk orphan
  /// classification plus dense column restores, each O(n).  Kept as the
  /// measured baseline for bench_backbone and as a second oracle in the
  /// equivalence tests.
  kPerDestination,
};

/// All-destinations routing database computed over a graph, optionally minus
/// an excluded (failed) edge set.  Conceptually one routing table per router;
/// the hot lookup columns (next dart / cost / hops) are flattened into single
/// contiguous destination-major arrays so the forwarding engine's inner loop
/// touches one cache line per lookup instead of chasing a per-destination
/// vector-of-vectors.  Per-router memory accounting feeds the E9 bench.
///
/// A db built WITHOUT a baseline exclusion set additionally supports
/// rebuild(): in-place delta repair to an arbitrary failure scenario,
/// bit-identical to constructing a fresh db with that scenario excluded.  The
/// state powering it -- a pristine column snapshot plus an edge ->
/// destination-trees membership index -- is materialised lazily on the first
/// rebuild() call, so never-rebuilt dbs pay nothing for it.
class RoutingDb {
 public:
  RoutingDb(const Graph& g, const graph::EdgeSet* excluded = nullptr,
            DiscriminatorKind kind = DiscriminatorKind::kHops);

  /// Repairs the tables in place so they equal RoutingDb(graph(), &excluded,
  /// discriminator_kind()) bit for bit (next_dart / dist / hops), but at
  /// delta cost: destination trees that do not use any excluded edge are
  /// skipped outright (restored from the pristine copy when a previous
  /// rebuild dirtied them), and affected trees are repaired from the
  /// orphaned-subtree frontier instead of from scratch.  Rebuilding with an
  /// empty set restores the pristine tables exactly.  `workspace` supplies
  /// the reusable SPF scratch; only available on a db constructed without a
  /// baseline exclusion set (throws std::logic_error otherwise).
  void rebuild(const graph::EdgeSet& excluded, graph::SpfWorkspace& workspace,
               RepairDrive drive = RepairDrive::kBatchedTrees);

  /// First dart of `at`'s shortest path toward `dest`; kInvalidDart when
  /// at == dest or dest is unreachable.
  [[nodiscard]] DartId next_dart(NodeId at, NodeId dest) const {
    return next_dart_[flat_index(at, dest)];
  }

  [[nodiscard]] bool reachable(NodeId at, NodeId dest) const {
    return dist_[flat_index(at, dest)] != graph::kUnreachable;
  }

  [[nodiscard]] Weight cost(NodeId at, NodeId dest) const {
    return dist_[flat_index(at, dest)];
  }

  [[nodiscard]] std::uint32_t hops(NodeId at, NodeId dest) const {
    return hops_[flat_index(at, dest)];
  }

  /// The distance discriminator from `at` to `dest` under the configured
  /// kind.  Throws std::logic_error for unreachable destinations (no
  /// discriminator exists; PR never needs one there).
  [[nodiscard]] std::uint32_t discriminator(NodeId at, NodeId dest) const;

  /// Largest finite discriminator in the table: sizes the DD header field.
  /// One O(n^2) pass over the live columns per call, so read it once per
  /// table, not per scenario.
  [[nodiscard]] std::uint32_t max_discriminator() const noexcept;

  [[nodiscard]] DiscriminatorKind discriminator_kind() const noexcept { return kind_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Bytes a single router needs for its routing table: one (next-hop,
  /// discriminator) pair per destination.  The discriminator column is the
  /// only PR-specific addition, mirroring the paper's memory argument.
  [[nodiscard]] std::size_t memory_bytes_per_router() const noexcept;

  /// Total process-memory footprint of this db: live columns plus (when
  /// materialised) the pristine snapshot and the rebuild indices.  Counts
  /// vector capacities, so it is what the allocator actually holds
  /// (bench_backbone's table_mb, LinkStateIgp::table_bytes()).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  [[nodiscard]] std::size_t flat_index(NodeId at, NodeId dest) const noexcept {
    return static_cast<std::size_t>(dest) * node_count_ + at;
  }

  /// CSR index: for each edge, the destinations whose pristine tree uses it.
  void build_edge_dest_index();

  /// CSR index: for each (destination, node), the node's children in that
  /// destination's pristine tree -- what repair_tree descends to find orphan
  /// subtrees in O(region).
  void build_children_index();

  /// Lazily snapshots the pristine columns and builds the edge index on the
  /// first rebuild(), so dbs that never rebuild pay nothing extra.
  void ensure_incremental_state();

  /// Undoes the previous scenario: sparse row restores when the last rebuild
  /// recorded changed lists (batched drive), dense column memcpys otherwise.
  void restore_dirty_columns();

  [[nodiscard]] graph::SpfWorkspace::TreeChildren children_view(
      NodeId dest) const noexcept {
    return {child_offsets_.data() +
                static_cast<std::size_t>(dest) * (node_count_ + 1),
            child_ids_.data()};
  }

  /// Discriminator of one flat table cell (caller checks reachability).
  [[nodiscard]] std::uint32_t disc_at(std::size_t flat) const noexcept;

  const Graph* graph_;
  DiscriminatorKind kind_;
  std::size_t node_count_ = 0;
  // The per-destination trees, flattened into contiguous destination-major
  // columns (index dest * node_count + at); the only storage the hot
  // forwarding lookups touch.
  std::vector<DartId> next_dart_;
  std::vector<Weight> dist_;
  std::vector<std::uint32_t> hops_;

  // Incremental-rebuild state; populated lazily by the first rebuild() and
  // only when the baseline exclusion set is empty (the scenario-sweep case).
  bool baseline_excluded_ = false;
  bool incremental_ready_ = false;
  std::uint64_t graph_structure_id_ = 0;  ///< guards rebuild against mutation
  std::vector<DartId> pristine_next_;
  std::vector<Weight> pristine_dist_;
  std::vector<std::uint32_t> pristine_hops_;
  std::vector<std::uint32_t> edge_dest_offsets_;  ///< CSR offsets, edge-indexed
  std::vector<NodeId> edge_dest_ids_;             ///< CSR payload: destinations
  std::vector<NodeId> dirty_dests_;    ///< columns differing from pristine
  std::vector<std::uint8_t> dest_flag_;  ///< rebuild scratch: affected marks
  std::vector<NodeId> affected_dests_;   ///< rebuild scratch: affected list

  // Pristine-tree children in CSR form, all destinations sharing one payload:
  // dest's slice starts at child_offsets_ + dest * (n + 1), holding n + 1
  // absolute offsets into child_ids_.  repair_tree's O(region) orphan
  // discovery descends this.
  std::vector<std::uint32_t> child_offsets_;  ///< n * (n + 1) absolute offsets
  std::vector<NodeId> child_ids_;             ///< one entry per tree edge

  // Sparse-restore bookkeeping written by the batched drive: per dirty
  // destination, the rows the repair changed (slice c of changed_nodes_ is
  // changed_offsets_[c] .. changed_offsets_[c + 1]).  Empty changed_offsets_
  // marks "dense" -- the legacy drive ran, restore whole columns.
  std::vector<std::size_t> changed_offsets_;
  std::vector<NodeId> changed_nodes_;
};

}  // namespace pr::route
