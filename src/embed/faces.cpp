#include "embed/faces.hpp"

#include <stdexcept>

#include "graph/connectivity.hpp"

namespace pr::embed {

double FaceSet::average_face_length() const {
  if (faces.empty()) return 0.0;
  std::size_t darts = 0;
  for (const auto& f : faces) darts += f.size();
  return static_cast<double>(darts) / static_cast<double>(faces.size());
}

FaceSet trace_faces(const RotationSystem& rot) {
  const Graph& g = rot.graph();
  FaceSet out;
  out.face_of.assign(g.dart_count(), std::numeric_limits<std::uint32_t>::max());
  for (DartId start = 0; start < g.dart_count(); ++start) {
    if (out.face_of[start] != std::numeric_limits<std::uint32_t>::max()) continue;
    const auto face_idx = static_cast<std::uint32_t>(out.faces.size());
    std::vector<DartId> walk;
    DartId d = start;
    do {
      out.face_of[d] = face_idx;
      walk.push_back(d);
      d = rot.face_successor(d);
      if (walk.size() > g.dart_count()) {
        throw std::logic_error("trace_faces: phi orbit longer than dart count");
      }
    } while (d != start);
    out.faces.push_back(std::move(walk));
  }
  return out;
}

int euler_genus(const Graph& g, const FaceSet& faces) {
  return euler_genus(g, faces.face_count());
}

int euler_genus(const Graph& g, std::size_t face_count) {
  const auto comp = graph::connected_components(g);
  std::uint32_t c = 0;
  for (std::uint32_t id : comp) c = std::max(c, id + 1);
  std::size_t isolated = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.degree(v) == 0) ++isolated;
  }
  const auto v_count = static_cast<long>(g.node_count());
  const auto e_count = static_cast<long>(g.edge_count());
  const auto f_count = static_cast<long>(face_count + isolated);
  const long twice_genus = 2 * static_cast<long>(c) - (v_count - e_count + f_count);
  if (twice_genus < 0 || twice_genus % 2 != 0) {
    throw std::logic_error("euler_genus: inconsistent face set (2g = " +
                           std::to_string(twice_genus) + ")");
  }
  return static_cast<int>(twice_genus / 2);
}

int genus_of(const RotationSystem& rot) {
  return euler_genus(rot.graph(), trace_faces(rot));
}

void check_face_set(const RotationSystem& rot, const FaceSet& faces) {
  const Graph& g = rot.graph();
  if (faces.face_of.size() != g.dart_count()) {
    throw std::logic_error("check_face_set: face_of size mismatch");
  }
  std::vector<std::uint8_t> seen(g.dart_count(), 0);
  for (std::size_t i = 0; i < faces.faces.size(); ++i) {
    const auto& walk = faces.faces[i];
    if (walk.empty()) throw std::logic_error("check_face_set: empty face");
    for (std::size_t k = 0; k < walk.size(); ++k) {
      const DartId d = walk[k];
      if (seen[d] != 0) throw std::logic_error("check_face_set: dart on two faces");
      seen[d] = 1;
      if (faces.face_of[d] != i) throw std::logic_error("check_face_set: face_of wrong");
      const DartId successor = walk[(k + 1) % walk.size()];
      if (rot.face_successor(d) != successor) {
        throw std::logic_error("check_face_set: walk disagrees with phi");
      }
      // Consecutive darts must be head-to-tail: a closed walk on the graph.
      if (g.dart_head(d) != g.dart_tail(successor)) {
        throw std::logic_error("check_face_set: face walk not contiguous");
      }
    }
  }
  for (DartId d = 0; d < g.dart_count(); ++d) {
    if (seen[d] == 0) throw std::logic_error("check_face_set: dart on no face");
  }
  (void)euler_genus(g, faces);  // throws when inconsistent
}

std::vector<EdgeId> self_paired_edges(const Graph& g, const FaceSet& faces) {
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const DartId d = graph::make_dart(e, 0);
    if (faces.main_cycle_of(d) == faces.complementary_cycle_of(d)) out.push_back(e);
  }
  return out;
}

bool pr_safe(const Graph& g, const FaceSet& faces) {
  return self_paired_edges(g, faces).empty();
}

std::string face_to_string(const Graph& g, const std::vector<DartId>& face) {
  if (face.empty()) return "<empty>";
  std::string out = g.display_name(g.dart_tail(face.front()));
  for (DartId d : face) {
    out += "->";
    out += g.display_name(g.dart_head(d));
  }
  return out;
}

}  // namespace pr::embed
