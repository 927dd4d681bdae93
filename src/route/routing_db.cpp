#include "route/routing_db.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pr::route {

namespace {
template <typename T>
[[nodiscard]] std::size_t cap_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}
}  // namespace

RoutingDb::RoutingDb(const Graph& g, const graph::EdgeSet* excluded,
                     DiscriminatorKind kind)
    : graph_(&g), kind_(kind), node_count_(g.node_count()) {
  if (kind_ == DiscriminatorKind::kWeightedCost) {
    // Weighted discriminators ride in an integer header field; require the
    // configured weights to be integral so encoding is exact.
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Weight w = g.edge_weight(e);
      if (w != std::floor(w)) {
        throw std::invalid_argument(
            "RoutingDb: weighted discriminators require integer link weights");
      }
    }
  }
  next_dart_.resize(node_count_ * node_count_);
  dist_.resize(node_count_ * node_count_);
  hops_.resize(node_count_ * node_count_);
  graph::SpfWorkspace workspace;
  for (NodeId dest = 0; dest < node_count_; ++dest) {
    // The SPF core writes each tree straight into the contiguous columns --
    // no per-destination ShortestPathTree allocations.
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    workspace.full_build(g, dest, excluded, dist_.data() + base,
                         hops_.data() + base, next_dart_.data() + base);
  }
  baseline_excluded_ = excluded != nullptr && !excluded->empty();
  graph_structure_id_ = g.structure_id();
}

void RoutingDb::ensure_incremental_state() {
  if (incremental_ready_) return;
  // Deferred to the first rebuild(): never-rebuilt dbs (a suite's pristine
  // tables, per-scenario throwaways) skip the 2x column snapshot and the
  // index pass entirely.  rebuild() is the only table mutator and dirty
  // columns are tracked from here on, so the columns are still pristine when
  // this snapshot is taken.
  pristine_next_ = next_dart_;
  pristine_dist_ = dist_;
  pristine_hops_ = hops_;
  build_edge_dest_index();
  build_children_index();
  dest_flag_.assign(node_count_, 0);
  incremental_ready_ = true;
}

void RoutingDb::build_edge_dest_index() {
  const std::size_t edges = graph_->edge_count();
  edge_dest_offsets_.assign(edges + 1, 0);
  // A tree uses each edge at most once (two nodes pointing over the same edge
  // would form a 2-cycle), so the payload needs no dedup: count, prefix-sum,
  // fill.
  for (const DartId d : pristine_next_) {
    if (d != graph::kInvalidDart) ++edge_dest_offsets_[graph::dart_edge(d) + 1];
  }
  for (std::size_t e = 0; e < edges; ++e) {
    edge_dest_offsets_[e + 1] += edge_dest_offsets_[e];
  }
  edge_dest_ids_.resize(edge_dest_offsets_[edges]);
  std::vector<std::uint32_t> cursor(edge_dest_offsets_.begin(),
                                    edge_dest_offsets_.end() - 1);
  for (NodeId dest = 0; dest < node_count_; ++dest) {
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    for (NodeId at = 0; at < node_count_; ++at) {
      const DartId d = pristine_next_[base + at];
      if (d != graph::kInvalidDart) {
        edge_dest_ids_[cursor[graph::dart_edge(d)]++] = dest;
      }
    }
  }
}

void RoutingDb::build_children_index() {
  const std::size_t n = node_count_;
  child_offsets_.assign(n * (n + 1), 0);
  child_ids_.resize(edge_dest_ids_.size());  // one entry per tree edge, too
  std::vector<std::uint32_t> cursor(n);
  std::uint32_t running = 0;
  for (NodeId dest = 0; dest < n; ++dest) {
    const std::size_t base = dest * n;
    std::uint32_t* off = child_offsets_.data() + dest * (n + 1);
    // Count each node's children (child v's parent is the head of its next
    // dart), then prefix into absolute offsets continuing from the previous
    // destination's slice.
    for (NodeId v = 0; v < n; ++v) {
      const DartId d = pristine_next_[base + v];
      if (d != graph::kInvalidDart) ++off[graph_->dart_head(d) + 1];
    }
    off[0] = running;
    for (std::size_t i = 1; i <= n; ++i) off[i] += off[i - 1];
    running = off[n];
    std::copy_n(off, n, cursor.data());
    for (NodeId v = 0; v < n; ++v) {
      const DartId d = pristine_next_[base + v];
      if (d != graph::kInvalidDart) child_ids_[cursor[graph_->dart_head(d)]++] = v;
    }
  }
}

void RoutingDb::restore_dirty_columns() {
  // The batched drive records exactly which rows each repair changed, so
  // undoing the previous scenario replays those rows instead of memcpying
  // whole O(n) columns -- the second half of making a sweep step cost
  // O(damage).  The legacy drive leaves no row records (changed_offsets_
  // empty), falling back to dense column restores.
  const bool sparse = changed_offsets_.size() == dirty_dests_.size() + 1;
  for (std::size_t c = 0; c < dirty_dests_.size(); ++c) {
    const NodeId dest = dirty_dests_[c];
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    if (sparse) {
      for (std::size_t i = changed_offsets_[c]; i < changed_offsets_[c + 1]; ++i) {
        const std::size_t flat = base + changed_nodes_[i];
        next_dart_[flat] = pristine_next_[flat];
        dist_[flat] = pristine_dist_[flat];
        hops_[flat] = pristine_hops_[flat];
      }
    } else {
      std::copy_n(pristine_next_.data() + base, node_count_, next_dart_.data() + base);
      std::copy_n(pristine_dist_.data() + base, node_count_, dist_.data() + base);
      std::copy_n(pristine_hops_.data() + base, node_count_, hops_.data() + base);
    }
  }
  dirty_dests_.clear();
  changed_offsets_.clear();
  changed_nodes_.clear();
}

void RoutingDb::rebuild(const graph::EdgeSet& excluded,
                        graph::SpfWorkspace& workspace, RepairDrive drive) {
  if (baseline_excluded_) {
    throw std::logic_error(
        "RoutingDb::rebuild: only supported on a db built without a baseline "
        "exclusion set");
  }
  if (graph_->structure_id() != graph_structure_id_) {
    // Repair mixes the pristine snapshot with the live graph; a mutation in
    // between would silently corrupt the tables, so fail loudly instead.
    throw std::logic_error(
        "RoutingDb::rebuild: graph was mutated since this db was built");
  }
  ensure_incremental_state();

  // Destinations whose pristine tree uses a failed edge -- everything else is
  // provably identical to a from-scratch build and is skipped.
  affected_dests_.clear();
  for (const EdgeId e : excluded.elements()) {
    if (e >= graph_->edge_count()) continue;  // unknown edge id
    for (std::uint32_t i = edge_dest_offsets_[e]; i < edge_dest_offsets_[e + 1];
         ++i) {
      const NodeId dest = edge_dest_ids_[i];
      if (dest_flag_[dest] == 0) {
        dest_flag_[dest] = 1;
        affected_dests_.push_back(dest);
      }
    }
  }

  // Restore every row a previous rebuild modified; repair then starts from
  // the pristine tree state it requires.
  restore_dirty_columns();

  if (drive == RepairDrive::kPerDestination) {
    for (const NodeId dest : affected_dests_) {
      dest_flag_[dest] = 0;  // reset the scratch marks for the next rebuild
      const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
      workspace.repair(*graph_, dest, excluded, dist_.data() + base,
                       hops_.data() + base, next_dart_.data() + base);
      dirty_dests_.push_back(dest);
    }
  } else {
    changed_offsets_.push_back(0);
    for (const NodeId dest : affected_dests_) {
      dest_flag_[dest] = 0;
      const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
      const std::span<const NodeId> orphans = workspace.repair_tree(
          *graph_, excluded, dist_.data() + base, hops_.data() + base,
          next_dart_.data() + base, children_view(dest));
      if (orphans.empty()) continue;  // defensive: tree untouched, stay clean
      // The orphan list is exactly the set of rows that may now differ from
      // pristine: record it for the next restore.
      changed_nodes_.insert(changed_nodes_.end(), orphans.begin(), orphans.end());
      changed_offsets_.push_back(changed_nodes_.size());
      dirty_dests_.push_back(dest);
    }
  }
}

std::uint32_t RoutingDb::discriminator(NodeId at, NodeId dest) const {
  if (!reachable(at, dest)) {
    throw std::logic_error("RoutingDb::discriminator: destination unreachable");
  }
  return disc_at(flat_index(at, dest));
}

std::uint32_t RoutingDb::disc_at(std::size_t flat) const noexcept {
  return kind_ == DiscriminatorKind::kHops
             ? hops_[flat]
             : static_cast<std::uint32_t>(std::llround(dist_[flat]));
}

std::uint32_t RoutingDb::max_discriminator() const noexcept {
  std::uint32_t best = 0;
  for (std::size_t flat = 0; flat < dist_.size(); ++flat) {
    if (dist_[flat] != graph::kUnreachable) best = std::max(best, disc_at(flat));
  }
  return best;
}

std::size_t RoutingDb::memory_bytes_per_router() const noexcept {
  // Per destination: next-hop interface id (4 B) + discriminator column (4 B).
  return graph_->node_count() * (sizeof(DartId) + sizeof(std::uint32_t));
}

std::size_t RoutingDb::bytes() const noexcept {
  return sizeof(*this) + cap_bytes(next_dart_) + cap_bytes(dist_) +
         cap_bytes(hops_) + cap_bytes(pristine_next_) +
         cap_bytes(pristine_dist_) + cap_bytes(pristine_hops_) +
         cap_bytes(edge_dest_offsets_) + cap_bytes(edge_dest_ids_) +
         cap_bytes(child_offsets_) + cap_bytes(child_ids_) +
         cap_bytes(dirty_dests_) + cap_bytes(dest_flag_) +
         cap_bytes(affected_dests_) + cap_bytes(changed_offsets_) +
         cap_bytes(changed_nodes_);
}

}  // namespace pr::route
