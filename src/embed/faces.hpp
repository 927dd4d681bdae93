// Face tracing and Euler genus.
//
// The orbits of the face-successor permutation phi partition the darts into
// directed face boundaries ("cellular cycles" in the paper's terminology).
// Every undirected link lies on exactly two of them, traversed in opposite
// directions -- the main and complementary cycles that Packet Re-cycling uses
// as backup paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "embed/rotation_system.hpp"

namespace pr::embed {

/// The face decomposition induced by a rotation system.
struct FaceSet {
  /// Each face is the dart orbit in traversal order (a closed directed walk).
  std::vector<std::vector<DartId>> faces;
  /// face_of[d] = index into `faces` of the unique face containing dart d.
  std::vector<std::uint32_t> face_of;

  [[nodiscard]] std::size_t face_count() const noexcept { return faces.size(); }

  /// Index of the face containing dart d (the "main cycle" of d).
  [[nodiscard]] std::uint32_t main_cycle_of(DartId d) const { return face_of.at(d); }

  /// Index of the face containing reverse(d) (the "complementary cycle").
  [[nodiscard]] std::uint32_t complementary_cycle_of(DartId d) const {
    return face_of.at(graph::reverse(d));
  }

  /// Mean boundary length 2|E| / F -- a proxy for expected recovery stretch.
  [[nodiscard]] double average_face_length() const;
};

/// Traces all orbits of phi.  O(|E|).
[[nodiscard]] FaceSet trace_faces(const RotationSystem& rot);

/// Orientable genus of the embedding described by `faces`:
///   genus = c - (V - E + F') / 2,
/// where c is the number of connected components and F' counts one extra face
/// per isolated node (a lone vertex on a sphere still bounds one face).
/// Always a non-negative integer for a valid face set.
[[nodiscard]] int euler_genus(const Graph& g, const FaceSet& faces);

/// The same from the face count alone, for a caller that keeps it live.
[[nodiscard]] int euler_genus(const Graph& g, std::size_t face_count);

/// Convenience: trace + genus in one call.
[[nodiscard]] int genus_of(const RotationSystem& rot);

/// Sanity check used by tests and the embedder: every dart on exactly one
/// face, every face a closed walk consistent with phi, genus non-negative.
/// Throws std::logic_error with a description on violation.
void check_face_set(const RotationSystem& rot, const FaceSet& faces);

/// Edges whose two darts lie on the SAME face -- the paper's "curved cell
/// that meets itself along l" case, where the main and complementary cycles
/// coincide.  Reproduction finding (pr_property_test's EmbeddingQuality
/// tests): when such a link fails, the joined boundary splits into two
/// components and cycle following can strand the packet on the one without
/// the exit point, so an embedding with a self-paired edge can drop packets
/// whose destination is still reachable.
/// Planar embeddings of 2-edge-connected graphs never have any (their faces
/// are edge-simple); random rotation systems frequently do.
[[nodiscard]] std::vector<EdgeId> self_paired_edges(const Graph& g, const FaceSet& faces);

/// True when every link separates two distinct cells (no self-paired edge):
/// necessary for PR to deliver every reachable packet, not sufficient (see
/// the kDistanceDiscriminator note in core/pr_protocol.hpp).
[[nodiscard]] bool pr_safe(const Graph& g, const FaceSet& faces);

/// Human-readable rendering such as "A->B->D->A" for reports and examples.
[[nodiscard]] std::string face_to_string(const Graph& g, const std::vector<DartId>& face);

}  // namespace pr::embed
