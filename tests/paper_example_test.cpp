// Exact reproduction of the paper's worked example: Figure 1's network and
// embedding, Table 1's cycle-following table at node D, and the three failure
// walkthroughs of Sections 4.2 and 4.3, asserted hop by hop.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/protocols.hpp"
#include "core/cycle_table.hpp"
#include "core/pr_protocol.hpp"
#include "embed/faces.hpp"
#include "graph/connectivity.hpp"
#include "reference_walk.hpp"
#include "topo/topologies.hpp"

namespace pr {
namespace {

using core::CycleFollowingTable;
using core::PacketRecycling;
using core::PrVariant;
using graph::DartId;
using graph::Graph;
using graph::NodeId;

/// Counts the forward() calls of the protocol it wraps.
class CountingProtocol final : public net::ForwardingProtocol {
 public:
  explicit CountingProtocol(net::ForwardingProtocol& inner) : inner_(&inner) {}

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, NodeId at,
                                                DartId arrived_over,
                                                net::Packet& packet) override {
    ++calls;
    return inner_->forward(net, at, arrived_over, packet);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  std::size_t calls = 0;

 private:
  net::ForwardingProtocol* inner_;
};

class PaperExample : public ::testing::Test {
 protected:
  PaperExample()
      : g_(topo::figure1()),
        rot_(topo::figure1_rotation(g_)),
        faces_(embed::trace_faces(rot_)),
        cycles_(rot_),
        routes_(g_) {}

  [[nodiscard]] NodeId node(const char* label) const { return *g_.find_node(label); }
  [[nodiscard]] DartId dart(const char* from, const char* to) const {
    return *g_.find_dart(node(from), node(to));
  }
  /// Finds the face that contains a given dart and renders it as node labels.
  [[nodiscard]] std::vector<std::string> face_of(const char* from, const char* to) const {
    const auto& walk = faces_.faces[faces_.main_cycle_of(dart(from, to))];
    std::vector<std::string> names;
    names.reserve(walk.size());
    for (DartId d : walk) names.push_back(g_.node_label(g_.dart_tail(d)));
    return names;
  }

  Graph g_;
  embed::RotationSystem rot_;
  embed::FaceSet faces_;
  CycleFollowingTable cycles_;
  route::RoutingDb routes_;
};

TEST_F(PaperExample, GraphShape) {
  EXPECT_EQ(g_.node_count(), 6U);
  EXPECT_EQ(g_.edge_count(), 8U);
  EXPECT_EQ(g_.degree(node("D")), 3U);  // "node D has three interfaces"
  EXPECT_TRUE(graph::is_two_edge_connected(g_));
}

TEST_F(PaperExample, EmbeddingHasTheFourPaperCycles) {
  ASSERT_EQ(faces_.face_count(), 4U);
  EXPECT_EQ(embed::euler_genus(g_, faces_), 0);  // sphere embedding

  // c1 = F->D->E->F
  auto c1 = face_of("F", "D");
  ASSERT_EQ(c1.size(), 3U);
  // c2 = E->D->B->C->E
  auto c2 = face_of("E", "D");
  ASSERT_EQ(c2.size(), 4U);
  // c3 = B->A->C->B
  auto c3 = face_of("B", "A");
  ASSERT_EQ(c3.size(), 3U);
  // c4 (outer) = A->B->D->F->E->C->A
  auto c4 = face_of("A", "B");
  ASSERT_EQ(c4.size(), 6U);

  // Check the exact circular sequences (start point is arbitrary).
  const auto circular_eq = [](std::vector<std::string> walk,
                              std::vector<std::string> expect) {
    if (walk.size() != expect.size()) return false;
    for (std::size_t s = 0; s < walk.size(); ++s) {
      std::rotate(walk.begin(), walk.begin() + 1, walk.end());
      if (walk == expect) return true;
    }
    return false;
  };
  EXPECT_TRUE(circular_eq(c1, {"F", "D", "E"}));
  EXPECT_TRUE(circular_eq(c2, {"E", "D", "B", "C"}));
  EXPECT_TRUE(circular_eq(c3, {"B", "A", "C"}));
  EXPECT_TRUE(circular_eq(c4, {"A", "B", "D", "F", "E", "C"}));
}

TEST_F(PaperExample, EveryLinkOnExactlyTwoOppositeCycles) {
  for (graph::EdgeId e = 0; e < g_.edge_count(); ++e) {
    const DartId d = graph::make_dart(e, 0);
    EXPECT_NE(faces_.main_cycle_of(d), faces_.main_cycle_of(graph::reverse(d)))
        << "edge " << g_.dart_name(d)
        << ": Figure 1's cycles traverse every link in both directions";
  }
}

TEST_F(PaperExample, TableOneAtNodeD) {
  // Table 1 rows: incoming -> (cycle following, complementary).
  //   I_BD -> I_DF (c4), I_DE (c1)
  //   I_ED -> I_DB (c2), I_DF (c4)
  //   I_FD -> I_DE (c1), I_DB (c2)
  EXPECT_EQ(cycles_.cycle_following(dart("B", "D")), dart("D", "F"));
  EXPECT_EQ(cycles_.complementary(dart("D", "F")), dart("D", "E"));

  EXPECT_EQ(cycles_.cycle_following(dart("E", "D")), dart("D", "B"));
  EXPECT_EQ(cycles_.complementary(dart("D", "B")), dart("D", "F"));

  EXPECT_EQ(cycles_.cycle_following(dart("F", "D")), dart("D", "E"));
  EXPECT_EQ(cycles_.complementary(dart("D", "E")), dart("D", "B"));

  // The same three rows via the per-router table view.
  const auto rows = cycles_.rows_for(node("D"));
  ASSERT_EQ(rows.size(), 3U);
  for (const auto& row : rows) {
    EXPECT_EQ(cycles_.cycle_following(row.incoming), row.cycle_following);
    EXPECT_EQ(cycles_.complementary(row.cycle_following), row.complementary);
  }
}

TEST_F(PaperExample, ShortestPathTreeToFMatchesTheFigure) {
  // The thick-edge tree of Figure 1(b): A->B->D->E->F and C->E.
  const NodeId f = node("F");
  EXPECT_EQ(g_.dart_head(routes_.next_dart(node("A"), f)), node("B"));
  EXPECT_EQ(g_.dart_head(routes_.next_dart(node("B"), f)), node("D"));
  EXPECT_EQ(g_.dart_head(routes_.next_dart(node("D"), f)), node("E"));
  EXPECT_EQ(g_.dart_head(routes_.next_dart(node("E"), f)), f);
  EXPECT_EQ(g_.dart_head(routes_.next_dart(node("C"), f)), node("E"));

  // Hop discriminators quoted by the paper: D=2, E=1 (and B=3, C=2).
  EXPECT_EQ(routes_.discriminator(node("D"), f), 2U);
  EXPECT_EQ(routes_.discriminator(node("E"), f), 1U);
  EXPECT_EQ(routes_.discriminator(node("B"), f), 3U);
  EXPECT_EQ(routes_.discriminator(node("C"), f), 2U);
}

TEST_F(PaperExample, SingleFailureWalkthrough) {
  // Section 4.2 / Figure 1(b): fail D-E; A sends to F.
  // Expected: A-B-D (spf), divert at D onto c2: D-B-C-E, resume spf: E-F.
  net::Network network(g_);
  network.fail_link(*g_.find_edge(node("D"), node("E")));
  PacketRecycling pr(routes_, cycles_, PrVariant::kDistanceDiscriminator);
  const auto trace = net::route_packet(network, pr, node("A"), node("F"));
  ASSERT_TRUE(trace.delivered());
  const std::vector<NodeId> expect = {node("A"), node("B"), node("D"), node("B"),
                                      node("C"), node("E"), node("F")};
  EXPECT_EQ(trace.nodes, expect);
  // The DD bits were stamped with D's discriminator (2) and never restamped.
  EXPECT_EQ(trace.final_packet.dd, 2U);
  // PR bit was cleared at E before delivery.
  EXPECT_FALSE(trace.final_packet.pr_bit);
}

TEST_F(PaperExample, SingleFailureWorksWithOneBitVariantToo) {
  net::Network network(g_);
  network.fail_link(*g_.find_edge(node("D"), node("E")));
  PacketRecycling pr(routes_, cycles_, PrVariant::kSingleBit);
  const auto trace = net::route_packet(network, pr, node("A"), node("F"));
  ASSERT_TRUE(trace.delivered());
  const std::vector<NodeId> expect = {node("A"), node("B"), node("D"), node("B"),
                                      node("C"), node("E"), node("F")};
  EXPECT_EQ(trace.nodes, expect);
}

TEST_F(PaperExample, DualFailureSection42Walkthrough) {
  // Section 4.2's second scenario: fail D-E and A-B.
  // "packets would first follow cycle c3 (complementary to c4 over A->B) to
  //  reach B, where normal routing would resume - only to fail again in D,
  //  from here recovery is identical to the previous example."
  // Expected: A (divert onto c3) -> C -> B (resume spf) -> D (divert onto c2)
  //           -> B -> C -> E (resume spf) -> F.
  net::Network network(g_);
  network.fail_link(*g_.find_edge(node("D"), node("E")));
  network.fail_link(*g_.find_edge(node("A"), node("B")));
  PacketRecycling pr(routes_, cycles_, PrVariant::kDistanceDiscriminator);
  const auto trace = net::route_packet(network, pr, node("A"), node("F"));
  ASSERT_TRUE(trace.delivered());
  const std::vector<NodeId> expect = {node("A"), node("C"), node("B"), node("D"),
                                      node("B"), node("C"), node("E"), node("F")};
  EXPECT_EQ(trace.nodes, expect);
}

TEST_F(PaperExample, DualFailureSection43Walkthrough) {
  // Section 4.3 / Figure 1(c): fail D-E and B-C.
  // Expected: A-B-D (spf), divert at D (dd=2) toward B; B's cf out B->C is
  // down, B's dd 3 >= 2 so continue on c3 via A to C; C's cf out C->B is
  // down, C's dd 2 >= 2 so continue on c2 to E; E's cf out E->D is down,
  // E's dd 1 < 2 so resume spf: E-F.
  net::Network network(g_);
  network.fail_link(*g_.find_edge(node("D"), node("E")));
  network.fail_link(*g_.find_edge(node("B"), node("C")));
  PacketRecycling pr(routes_, cycles_, PrVariant::kDistanceDiscriminator);
  const auto trace = net::route_packet(network, pr, node("A"), node("F"));
  ASSERT_TRUE(trace.delivered());
  const std::vector<NodeId> expect = {node("A"), node("B"), node("D"), node("B"),
                                      node("A"), node("C"), node("E"), node("F")};
  EXPECT_EQ(trace.nodes, expect);
  EXPECT_EQ(trace.final_packet.dd, 2U);  // stamped once at D
  // Termination comparisons happened at B, C and E.
  EXPECT_EQ(pr.termination_checks(), 3U);
}

TEST_F(PaperExample, Section43ScenarioLoopsUnderOneBitVariant) {
  // The paper motivates the DD bits with exactly this scenario: without them
  // the packet returns to the shortest path and meets D->E forever.
  net::Network network(g_);
  network.fail_link(*g_.find_edge(node("D"), node("E")));
  network.fail_link(*g_.find_edge(node("B"), node("C")));
  PacketRecycling pr(routes_, cycles_, PrVariant::kSingleBit);
  CountingProtocol counted(pr);
  const auto trace = net::route_packet(network, counted, node("A"), node("F"));
  EXPECT_FALSE(trace.delivered());
  EXPECT_EQ(trace.drop_reason, net::DropReason::kTtlExpired);

  // At 100x the default TTL the loop is taken from the walk log, not
  // re-decided: the walk equals the hop-by-hop reference, yet costs barely
  // more decisions than the default-TTL walk.
  const std::uint32_t long_ttl = 100 * net::default_ttl(g_);
  PacketRecycling reference_pr(routes_, cycles_, PrVariant::kSingleBit);
  const auto reference = test_support::reference_walk(network, reference_pr, node("A"),
                                                      node("F"), long_ttl);
  PacketRecycling long_pr(routes_, cycles_, PrVariant::kSingleBit);
  CountingProtocol long_counted(long_pr);
  const auto long_trace =
      net::route_packet(network, long_counted, node("A"), node("F"), long_ttl);
  EXPECT_EQ(long_trace.drop_reason, net::DropReason::kTtlExpired);
  EXPECT_EQ(long_trace.hops, long_ttl);
  EXPECT_EQ(long_trace.nodes, reference.trace.nodes);
  EXPECT_EQ(long_trace.cost, reference.trace.cost);
  EXPECT_EQ(long_trace.final_packet.pr_bit, reference.trace.final_packet.pr_bit);
  EXPECT_EQ(long_trace.final_packet.dd, reference.trace.final_packet.dd);
  EXPECT_LT(long_counted.calls, counted.calls + 8);
}

TEST_F(PaperExample, RenderTableMatchesPaperNotation) {
  const auto text = cycles_.render_table(node("D"), faces_);
  EXPECT_NE(text.find("I_BD"), std::string::npos);
  EXPECT_NE(text.find("I_DF"), std::string::npos);
  EXPECT_NE(text.find("I_DE"), std::string::npos);
  EXPECT_NE(text.find("I_DB"), std::string::npos);
  EXPECT_NE(text.find("I_ED"), std::string::npos);
  EXPECT_NE(text.find("I_FD"), std::string::npos);
}

}  // namespace
}  // namespace pr
