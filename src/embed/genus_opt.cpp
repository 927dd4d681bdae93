#include "embed/genus_opt.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace pr::embed {

namespace {

/// Lexicographic objective: more faces first (lower genus), then more
/// PR-safe edges (edges whose two darts lie on distinct faces; see
/// faces.hpp for why safety matters to Packet Re-cycling).
struct Score {
  std::size_t faces = 0;
  std::size_t safe_edges = 0;

  bool operator==(const Score&) const noexcept = default;
  bool operator>(const Score& other) const noexcept {
    if (faces != other.faces) return faces > other.faces;
    return safe_edges > other.safe_edges;
  }
  bool operator>=(const Score& other) const noexcept {
    return *this > other || *this == other;
  }
};

/// The search's own rotation system, changed in place: every node's cyclic
/// order is a slice of one flat dart array, with sigma beside it.  Its faces
/// stay live across moves as one label per dart (the dart the face's trace
/// started from), the face count and the self-paired-link count.
///
/// A move at v changes sigma at three out-darts of v at most, so phi changes
/// at their reverses only.  The move re-traces the (at most three) faces
/// through those darts twice: along the old phi, to list their darts, and
/// along the new phi, to label the orbits those darts form now.  A link can
/// change from self-paired to not, or back, only if both its darts are
/// listed; every other face and label stays as it is.
class LiveRotation {
 public:
  explicit LiveRotation(const Graph& g) : g_(&g), begin_(g.node_count() + 1, 0) {
    for (NodeId v = 0; v < g.node_count(); ++v) begin_[v + 1] = begin_[v] + g.degree(v);
    order_.resize(g.dart_count());
    next_.resize(g.dart_count());
    face_.resize(g.dart_count());
    trial_face_.assign(g.dart_count(), graph::kInvalidDart);
  }

  /// Takes `rot`'s orders and traces every face.
  void assign(const RotationSystem& rot) {
    for (NodeId v = 0; v < g_->node_count(); ++v) {
      const auto order = rot.order_at(v);
      std::copy(order.begin(), order.end(), order_.begin() + begin_[v]);
      link(v);
    }
    std::fill(face_.begin(), face_.end(), graph::kInvalidDart);
    faces_ = 0;
    for (DartId start = 0; start < g_->dart_count(); ++start) {
      if (face_[start] != graph::kInvalidDart) continue;
      DartId d = start;
      do {
        face_[d] = start;
        d = phi(d);
      } while (d != start);
      ++faces_;
    }
    self_paired_ = 0;
    for (DartId d = 0; d < g_->dart_count(); d += 2) {
      if (face_[d] == face_[graph::reverse(d)]) ++self_paired_;
    }
#ifndef NDEBUG
    mirror_ = rot;
#endif
  }

  [[nodiscard]] Score score() const {
    return Score{faces_, g_->edge_count() - self_paired_};
  }

  /// The flat order: node v's slice starts at the sum of the lower nodes'
  /// degrees.
  [[nodiscard]] const std::vector<DartId>& orders() const noexcept { return order_; }

  /// A validated RotationSystem over an order laid out as orders() is.
  [[nodiscard]] RotationSystem to_rotation(const std::vector<DartId>& order) const {
    std::vector<std::vector<DartId>> orders(g_->node_count());
    for (NodeId v = 0; v < g_->node_count(); ++v) {
      orders[v].assign(order.begin() + begin_[v], order.begin() + begin_[v + 1]);
    }
    return RotationSystem::from_orders(*g_, std::move(orders));
  }

  /// Moves the dart at position `take` of v's order to position `put`, as
  /// an erase followed by an insert, and returns the moved rotation's score.
  /// score() and the labels describe the rotation before the move until
  /// commit(); revert() undoes the move.
  Score move(NodeId v, std::size_t take, std::size_t put) {
    const auto first = order_.begin() + begin_[v];
    const auto last = order_.begin() + begin_[v + 1];
    moved_ = v;
    saved_.assign(first, last);
    if (take < put) {
      std::rotate(first + take, first + take + 1, first + put + 1);
    } else {
      std::rotate(first + put, first + take, first + take + 1);
    }

    // phi changes at the reverse of each out-dart whose sigma changes.
    rewired_.clear();
    const std::size_t deg = begin_[v + 1] - begin_[v];
    for (std::size_t i = 0; i < deg; ++i) {
      if (next_[first[i]] != first[(i + 1) % deg]) {
        rewired_.push_back(graph::reverse(first[i]));
      }
    }

    // sigma is still the old one: list the darts of the faces through them.
    touched_.clear();
    std::size_t old_faces = 0;
    for (std::size_t i = 0; i < rewired_.size(); ++i) {
      const DartId start = rewired_[i];
      bool traced = false;
      for (std::size_t j = 0; j < i; ++j) traced |= face_[rewired_[j]] == face_[start];
      if (traced) continue;
      DartId d = start;
      do {
        touched_.push_back(d);
        d = phi(d);
      } while (d != start);
      ++old_faces;
    }

    link(v);
    std::size_t new_faces = 0;
    for (const DartId start : touched_) {
      if (trial_face_[start] != graph::kInvalidDart) continue;
      DartId d = start;
      do {
        trial_face_[d] = start;
        d = phi(d);
      } while (d != start);
      ++new_faces;
    }

    // A link with one dart listed lies on two faces before and after: the
    // listed dart's face holds only listed darts.
    std::size_t self_paired = self_paired_;
    for (const DartId d : touched_) {
      if ((d & 1U) != 0) continue;
      const DartId r = graph::reverse(d);
      if (face_[d] == face_[r]) --self_paired;
      if (trial_face_[d] == trial_face_[r]) ++self_paired;
    }
    trial_ = Score{faces_ - old_faces + new_faces, g_->edge_count() - self_paired};
#ifndef NDEBUG
    mirror_->set_order(v, std::vector<DartId>(first, last));
    check(v, take, put);
#endif
    return trial_;
  }

  void commit() {
    for (const DartId d : touched_) {
      face_[d] = trial_face_[d];
      trial_face_[d] = graph::kInvalidDart;
    }
    faces_ = trial_.faces;
    self_paired_ = g_->edge_count() - trial_.safe_edges;
  }

  void revert() {
    for (const DartId d : touched_) trial_face_[d] = graph::kInvalidDart;
    std::copy(saved_.begin(), saved_.end(), order_.begin() + begin_[moved_]);
    link(moved_);
#ifndef NDEBUG
    mirror_->set_order(moved_, saved_);
#endif
  }

 private:
  [[nodiscard]] DartId phi(DartId d) const { return next_[graph::reverse(d)]; }

  /// Sets sigma from v's slice.
  void link(NodeId v) {
    const std::size_t b = begin_[v];
    const std::size_t deg = begin_[v + 1] - b;
    for (std::size_t i = 0; i < deg; ++i) {
      next_[order_[b + i]] = order_[b + (i + 1) % deg];
    }
  }

  const Graph* g_;
  std::vector<std::size_t> begin_;  ///< node v's slice of order_ starts here
  std::vector<DartId> order_;
  std::vector<DartId> next_;        ///< sigma
  std::vector<DartId> face_;        ///< per dart: the dart its face's trace began at
  std::size_t faces_ = 0;
  std::size_t self_paired_ = 0;

  // The pending move.
  NodeId moved_ = 0;
  Score trial_;
  std::vector<DartId> saved_;       ///< moved_'s slice before the move
  std::vector<DartId> rewired_;     ///< darts whose phi the move changed
  std::vector<DartId> touched_;     ///< darts of the old faces through rewired_
  std::vector<DartId> trial_face_;  ///< new labels of touched_, else kInvalidDart

#ifndef NDEBUG
  /// Debug builds replay every move on a RotationSystem through set_order()
  /// and check each live score against a full trace of it.
  void check(NodeId v, std::size_t take, std::size_t put) const {
    const FaceSet faces = trace_faces(*mirror_);
    const Score traced{faces.face_count(),
                       g_->edge_count() - self_paired_edges(*g_, faces).size()};
    if (traced == trial_) return;
    const auto str = [](const Score& s) {
      return "(" + std::to_string(s.faces) + " faces, " + std::to_string(s.safe_edges) +
             " safe edges)";
    };
    throw std::logic_error("minimize_genus: moving position " + std::to_string(take) +
                           " to " + std::to_string(put) + " at node " +
                           std::to_string(v) + " scored " + str(trial_) +
                           " live but " + str(traced) + " by a full trace");
  }

  std::optional<RotationSystem> mirror_;
#endif
};

}  // namespace

GenusSearchResult minimize_genus(const Graph& g, const GenusSearchOptions& opts) {
  graph::Rng rng(opts.seed);

  // Only nodes of degree >= 3 have more than one cyclic order.
  std::vector<NodeId> movable;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.degree(v) >= 3) movable.push_back(v);
  }

  LiveRotation current(g);
  current.assign(RotationSystem::identity(g));
  std::vector<DartId> best = current.orders();
  Score best_score = current.score();
  std::size_t used = 0;

  if (movable.empty() || opts.max_iterations == 0) {
    return GenusSearchResult{current.to_rotation(best), euler_genus(g, best_score.faces),
                             used};
  }

  const auto is_perfect = [&](const Score& s) {
    // Cannot do better than a sphere embedding with every edge safe.
    return s.safe_edges == g.edge_count() && euler_genus(g, s.faces) == 0;
  };

  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  const std::size_t per_restart = std::max<std::size_t>(1, opts.max_iterations / restarts);

  for (std::size_t r = 0; r < restarts && used < opts.max_iterations; ++r) {
    current.assign(r == 0 ? RotationSystem::identity(g) : RotationSystem::random(g, rng));
    if (current.score() > best_score) {
      best = current.orders();
      best_score = current.score();
    }

    // Phase A (first half): maximise face count with full sideways mobility.
    // Phase B (second half): refine within the face-count plateau, accepting
    // only moves that do not lose safety -- this steers the walk toward
    // embeddings where every link separates two distinct cells.
    for (std::size_t i = 0; i < per_restart && used < opts.max_iterations; ++i, ++used) {
      const bool safety_phase = i >= per_restart / 2;
      const NodeId v = movable[rng.below(movable.size())];
      const std::size_t deg = g.degree(v);
      const std::size_t take = rng.below(deg);
      std::size_t put = rng.below(deg - 1);
      if (put >= take) ++put;
      const Score moved = current.move(v, take, put);
      const bool accept = safety_phase ? moved >= current.score()
                                       : moved.faces >= current.score().faces;
      if (accept) {
        current.commit();
        if (moved > best_score) {
          best = current.orders();
          best_score = moved;
          if (is_perfect(best_score)) {
            return GenusSearchResult{current.to_rotation(best), 0, used + 1};
          }
        }
      } else {
        current.revert();
      }
    }
  }

  return GenusSearchResult{current.to_rotation(best), euler_genus(g, best_score.faces),
                           used};
}

ExactGenusResult exact_minimum_genus(const Graph& g, std::uint64_t max_rotations) {
  // Size of the rotation space: the first dart of each node's cyclic order is
  // fixed (cyclic symmetry), the rest permute freely: prod (deg - 1)!.
  double space = 1.0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::size_t k = 2; k < g.degree(v); ++k) {
      space *= static_cast<double>(k);
    }
  }
  if (space > static_cast<double>(max_rotations)) {
    throw std::invalid_argument(
        "exact_minimum_genus: rotation space too large (" + std::to_string(space) +
        " rotations)");
  }

  // Per-node permutable tails (all out-darts except the first).
  std::vector<std::vector<DartId>> tails(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto outs = g.out_darts(v);
    if (outs.size() > 1) tails[v].assign(outs.begin() + 1, outs.end());
    std::sort(tails[v].begin(), tails[v].end());
  }

  ExactGenusResult result{RotationSystem::identity(g), 0, 0, 0, 0};
  int best_genus = std::numeric_limits<int>::max();

  // Odometer over per-node permutations via std::next_permutation.
  std::vector<std::vector<DartId>> current = tails;
  const auto build = [&]() {
    std::vector<std::vector<DartId>> orders(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto outs = g.out_darts(v);
      orders[v].clear();
      if (!outs.empty()) orders[v].push_back(outs[0]);
      orders[v].insert(orders[v].end(), current[v].begin(), current[v].end());
    }
    return RotationSystem::from_orders(g, std::move(orders));
  };

  bool done = false;
  while (!done) {
    const RotationSystem rot = build();
    const FaceSet faces = trace_faces(rot);
    const int genus = euler_genus(g, faces);
    ++result.rotations_tested;
    if (genus < best_genus) {
      best_genus = genus;
      result.rotation = rot;
      result.genus = genus;
      result.minimum_count = 1;
      result.minimum_pr_safe = pr_safe(g, faces) ? 1 : 0;
    } else if (genus == best_genus) {
      ++result.minimum_count;
      if (pr_safe(g, faces)) ++result.minimum_pr_safe;
    }

    // Advance the odometer.
    done = true;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (std::next_permutation(current[v].begin(), current[v].end())) {
        done = false;
        break;
      }
      // wrapped: current[v] is sorted again, carry to the next node
    }
  }
  return result;
}

}  // namespace pr::embed
