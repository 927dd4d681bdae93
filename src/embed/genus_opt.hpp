// Heuristic genus minimisation for non-planar graphs.
//
// Minimum-genus embedding is NP-hard in general (the paper cites Mohar &
// Thomassen); PR however only needs *a* cellular embedding -- any rotation
// system works, lower genus merely shortens the backup cycles and hence the
// stretch.  This module provides the practical middle ground the paper's
// Section 7 sketches: a face-count-maximising local search over rotation
// systems (hill climbing with sideways moves and random restarts).
//
// A move reinserts one dart elsewhere in one node's cyclic order, which
// changes the face successor phi at three darts at most.  The search keeps
// its own flat rotation, a face label per dart, the face count and the
// self-paired-link count live across moves, and re-traces only the faces
// through the darts a move rewires; it builds a RotationSystem once, for the
// result.  It returns what a search that re-traces every face after every
// move returns, bit for bit (genus_opt_test checks it against that search,
// kept in tests/reference_genus_search.hpp), and Debug builds check every
// move's score against a full trace.
#pragma once

#include <cstdint>

#include "embed/faces.hpp"
#include "embed/rotation_system.hpp"

namespace pr::embed {

struct GenusSearchOptions {
  /// Total move budget across all restarts.  A move re-traces the faces it
  /// rewires, not the whole embedding: on average 109 of the 1,002 darts of
  /// the 248-node ISP and 464 of the 4,110 darts of the 1,024-node ISP.  The
  /// default budget then takes 0.09-0.12 s and 0.29-0.41 s there (Release
  /// build, 4-vCPU x86 host; re-tracing every face after each move took
  /// 0.9-1.6 s and 2.6-4.3 s).
  std::size_t max_iterations = 60000;
  /// Number of starting points (the first is the identity rotation, the rest
  /// are uniformly random).
  std::size_t restarts = 6;
  std::uint64_t seed = 0x5eed;
};

struct GenusSearchResult {
  RotationSystem rotation;
  int genus = 0;
  std::size_t iterations_used = 0;
};

/// Searches for a low-genus rotation system of `g`.  Deterministic for a
/// given option set.  The result is always a valid cellular embedding, even
/// when the search fails to reach the true minimum.
[[nodiscard]] GenusSearchResult minimize_genus(const Graph& g,
                                               const GenusSearchOptions& opts = {});

/// Exact minimum genus by exhausting the rotation-system space
/// (prod over nodes of (deg-1)!), feasible only for small graphs: Petersen is
/// 2^10 rotations, K5 is 6^5.  Throws std::invalid_argument when the space
/// exceeds `max_rotations`.  Used to validate the heuristic search and to
/// study how common PR-safe minimum-genus embeddings are.  The witness
/// `rotation` references `g`, which must outlive the result.
struct ExactGenusResult {
  RotationSystem rotation;  ///< one witness minimum-genus rotation
  int genus = 0;
  std::uint64_t rotations_tested = 0;
  std::uint64_t minimum_count = 0;  ///< rotations achieving the minimum
  std::uint64_t minimum_pr_safe = 0;  ///< ... of which are PR-safe
};
[[nodiscard]] ExactGenusResult exact_minimum_genus(const Graph& g,
                                                   std::uint64_t max_rotations = 2000000);

}  // namespace pr::embed
