// Top-level embedding entry point: the "offline server" of the paper's
// Section 4.3, which computes the cellular embedding once and hands the
// resulting cycle system to every router.
#pragma once

#include "embed/faces.hpp"
#include "embed/genus_opt.hpp"
#include "embed/planar.hpp"
#include "embed/rotation_system.hpp"

namespace pr::embed {

enum class EmbedStrategy {
  kAuto,         ///< planar embedding when possible, local search otherwise
  kPlanar,       ///< DMP only; throws std::invalid_argument on non-planar input
  kLocalSearch,  ///< genus-minimising local search regardless of planarity
  kRandom,       ///< uniformly random rotation system (ablation A3 baseline)
  kIdentity,     ///< edge-insertion-order rotation system (cheapest possible)
};

struct EmbedOptions {
  EmbedStrategy strategy = EmbedStrategy::kAuto;
  GenusSearchOptions search;  ///< used by kAuto fallback and kLocalSearch
  std::uint64_t random_seed = 0x5eed;  ///< used by kRandom
};

/// A complete cellular embedding: rotation system + its face decomposition.
/// Holds a reference to the graph it embeds; the graph must outlive it.
struct Embedding {
  RotationSystem rotation;
  FaceSet faces;
  int genus = 0;
  EmbedStrategy strategy_used = EmbedStrategy::kAuto;

  [[nodiscard]] bool planar() const noexcept { return genus == 0; }

  /// True when every link separates two distinct cells: necessary for PR to
  /// deliver every reachable packet, not sufficient (see faces.hpp).
  [[nodiscard]] bool supports_pr() const {
    return pr_safe(rotation.graph(), faces);
  }
};

/// Computes a cellular embedding of `g` according to `opts`.  The result is
/// validated (every dart on exactly one face, Euler-consistent genus) before
/// being returned.
[[nodiscard]] Embedding embed(const Graph& g, const EmbedOptions& opts = {});

}  // namespace pr::embed
