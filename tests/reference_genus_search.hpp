// The full-re-trace genus search embed::minimize_genus is tested against.
//
// minimize_genus keeps its faces live across moves and re-traces only the
// faces a move rewires.  This is the search it replaced: after every move it
// traces every face and counts the self-paired links again, on a
// RotationSystem whose order it replaces through set_order().  Both draw the
// same random moves and make the same accept decisions, so the live search
// must return the same order at every node, the same genus and the same
// iterations_used.
#pragma once

#include <algorithm>
#include <vector>

#include "embed/faces.hpp"
#include "embed/genus_opt.hpp"
#include "embed/rotation_system.hpp"

namespace pr::test_support {

namespace reference_genus_detail {

// The names the search used inside pr::embed.
using namespace pr::embed;

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

inline Score score_of(const RotationSystem& rot) {
  const FaceSet faces = trace_faces(rot);
  const std::size_t unsafe = self_paired_edges(rot.graph(), faces).size();
  return Score{faces.face_count(), rot.graph().edge_count() - unsafe};
}

/// One local move: remove a dart from a node's cyclic order and reinsert it at
/// a different position.  Returns the previous order so the caller can revert.
inline std::vector<DartId> apply_move(RotationSystem& rot, NodeId v, std::size_t take,
                                      std::size_t put) {
  const auto span = rot.order_at(v);
  std::vector<DartId> old_order(span.begin(), span.end());
  std::vector<DartId> new_order = old_order;
  const DartId d = new_order[take];
  new_order.erase(new_order.begin() + static_cast<std::ptrdiff_t>(take));
  new_order.insert(new_order.begin() + static_cast<std::ptrdiff_t>(put), d);
  rot.set_order(v, std::move(new_order));
  return old_order;
}

/// The search as it was before its faces were kept live.
inline GenusSearchResult reference_minimize_genus(const Graph& g,
                                                  const GenusSearchOptions& opts = {}) {
  graph::Rng rng(opts.seed);

  // Only nodes of degree >= 3 have more than one cyclic order.
  std::vector<NodeId> movable;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.degree(v) >= 3) movable.push_back(v);
  }

  RotationSystem best = RotationSystem::identity(g);
  Score best_score = score_of(best);
  std::size_t used = 0;

  if (movable.empty() || opts.max_iterations == 0) {
    return GenusSearchResult{best, genus_of(best), used};
  }

  const auto is_perfect = [&](const Score& s) {
    // Cannot do better than a sphere embedding with every edge safe.
    return s.safe_edges == g.edge_count() && genus_of(best) == 0;
  };

  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  const std::size_t per_restart = std::max<std::size_t>(1, opts.max_iterations / restarts);

  for (std::size_t r = 0; r < restarts && used < opts.max_iterations; ++r) {
    RotationSystem current =
        (r == 0) ? RotationSystem::identity(g) : RotationSystem::random(g, rng);
    Score current_score = score_of(current);
    if (current_score > best_score) {
      best = current;
      best_score = current_score;
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
      const auto saved = apply_move(current, v, take, put);
      const Score moved = score_of(current);
      const bool accept = safety_phase ? moved >= current_score
                                       : moved.faces >= current_score.faces;
      if (accept) {
        current_score = moved;
        if (moved > best_score) {
          best = current;
          best_score = moved;
          if (is_perfect(best_score)) {
            return GenusSearchResult{best, 0, used + 1};
          }
        }
      } else {
        current.set_order(v, saved);  // revert
      }
    }
  }

  return GenusSearchResult{best, genus_of(best), used};
}

}  // namespace reference_genus_detail

using reference_genus_detail::reference_minimize_genus;

}  // namespace pr::test_support
