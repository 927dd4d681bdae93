// Property suites for Packet Re-cycling's central guarantees:
//
//  P1  single link failure in a 2-edge-connected network => delivery, for any
//      PR-safe embedding (every link separating two distinct cells);
//  P2  any failure combination with source and destination still connected
//      => delivery under the DD variant, verified exhaustively on small
//      graphs and by sampling on larger ones;
//  P3  the guarantee needs embedding quality, not low genus per se: PR-safe
//      random rotations work, self-paired ones provably strand packets
//      (reproduction finding F1), and a PR-safe embedding with handles can
//      still loop (finding F2, NonPlanarLivelock);
//  P4  measured stretch is always >= 1 and equals 1 on unaffected pairs.
#include <gtest/gtest.h>

#include <tuple>

#include "core/pr_protocol.hpp"
#include "embed/embedder.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "net/failure_model.hpp"
#include "route/fcp.hpp"
#include "topo/topologies.hpp"

namespace pr::core {
namespace {

using graph::EdgeSet;
using graph::Graph;
using graph::NodeId;

struct Fixture {
  Fixture(Graph graph, embed::EmbedOptions opts)
      : g(std::move(graph)),
        emb(embed::embed(g, opts)),
        routes(g),
        cycles(emb.rotation),
        pr(routes, cycles),
        pr1(routes, cycles, PrVariant::kSingleBit) {}

  Fixture(Graph graph, embed::RotationSystem rotation_for_copy)
      : g(std::move(graph)),
        emb(remake_embedding(g, rotation_for_copy)),
        routes(g),
        cycles(emb.rotation),
        pr(routes, cycles),
        pr1(routes, cycles, PrVariant::kSingleBit) {}

  static embed::Embedding remake_embedding(const Graph& g,
                                           const embed::RotationSystem& proto) {
    // Rebuild the rotation against the fixture's own graph instance.
    std::vector<std::vector<graph::DartId>> orders;
    orders.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto span = proto.order_at(v);
      orders.emplace_back(span.begin(), span.end());
    }
    auto rot = embed::RotationSystem::from_orders(g, std::move(orders));
    auto faces = embed::trace_faces(rot);
    const int genus = embed::euler_genus(g, faces);
    return embed::Embedding{std::move(rot), std::move(faces), genus,
                            embed::EmbedStrategy::kAuto};
  }

  Graph g;
  embed::Embedding emb;
  route::RoutingDb routes;
  CycleFollowingTable cycles;
  PacketRecycling pr;
  PacketRecycling pr1;
};

void expect_full_recovery(Fixture& fx, const EdgeSet& failures, PacketRecycling& proto,
                          const char* context) {
  net::Network network(fx.g);
  for (auto e : failures.elements()) network.fail_link(e);
  const auto components = graph::connected_components(fx.g, &failures);
  for (NodeId s = 0; s < fx.g.node_count(); ++s) {
    for (NodeId t = 0; t < fx.g.node_count(); ++t) {
      if (s == t) continue;
      const auto trace = net::route_packet(network, proto, s, t);
      if (components[s] == components[t]) {
        ASSERT_TRUE(trace.delivered())
            << context << ": s=" << s << " t=" << t << " should be recoverable";
        EXPECT_GE(trace.cost, fx.routes.cost(s, t) - 1e-9)
            << context << ": stretch below 1 is impossible";
      } else {
        EXPECT_FALSE(trace.delivered()) << context << ": s=" << s << " t=" << t;
      }
    }
  }
}

// ---- P1: single failures, many graphs, PR-safe embeddings -------------------

using GraphMaker = Graph (*)();

Graph make_figure1() { return topo::figure1(); }
Graph make_abilene() { return topo::abilene(); }
Graph make_teleglobe() { return topo::teleglobe(); }
Graph make_geant() { return topo::geant(); }
Graph make_petersen() { return graph::petersen(); }
Graph make_grid() { return graph::grid(4, 4); }
Graph make_torus() { return graph::torus(3, 4); }
Graph make_k5() { return graph::k5(); }

class SingleFailureSuite : public ::testing::TestWithParam<GraphMaker> {};

TEST_P(SingleFailureSuite, EverySingleFailureRecovered) {
  Fixture fx(GetParam()(), embed::EmbedOptions{});
  ASSERT_TRUE(graph::is_two_edge_connected(fx.g));
  ASSERT_TRUE(fx.emb.supports_pr())
      << "kAuto embedding must make every link separate two distinct cells";
  for (const auto& failures : net::all_single_failures(fx.g)) {
    expect_full_recovery(fx, failures, fx.pr, "P1/dd");
    expect_full_recovery(fx, failures, fx.pr1, "P1/1bit");
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, SingleFailureSuite,
                         ::testing::Values(make_figure1, make_abilene, make_teleglobe,
                                           make_geant, make_petersen, make_grid,
                                           make_torus, make_k5),
                         [](const ::testing::TestParamInfo<GraphMaker>& info) {
                           const GraphMaker m = info.param;
                           return std::string(m == make_figure1     ? "figure1"
                                              : m == make_abilene   ? "abilene"
                                              : m == make_teleglobe ? "teleglobe"
                                              : m == make_geant     ? "geant"
                                              : m == make_petersen  ? "petersen"
                                              : m == make_grid      ? "grid"
                                              : m == make_torus     ? "torus"
                                                                    : "k5");
                         });

// ---- P2: exhaustive multi-failure on small graphs ---------------------------

class ExhaustiveFailureSuite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExhaustiveFailureSuite, Figure1AllCombinations) {
  const std::size_t k = GetParam();
  Fixture fx(topo::figure1(), embed::EmbedOptions{});
  for (const auto& failures : net::enumerate_failures(fx.g, k)) {
    expect_full_recovery(fx, failures, fx.pr, "P2/figure1");
  }
}

INSTANTIATE_TEST_SUITE_P(UpToFiveSimultaneousFailures, ExhaustiveFailureSuite,
                         ::testing::Values(1U, 2U, 3U, 4U, 5U));

TEST(ExhaustiveFailures, Figure1PaperRotationAllTriples) {
  // The paper's own embedding, not just the DMP one.
  auto g = topo::figure1();
  auto rot = topo::figure1_rotation(g);
  Fixture fx(topo::figure1(), rot);
  ASSERT_TRUE(fx.emb.supports_pr());
  for (std::size_t k = 1; k <= 3; ++k) {
    for (const auto& failures : net::enumerate_failures(fx.g, k)) {
      expect_full_recovery(fx, failures, fx.pr, "P2/figure1-paper-rotation");
    }
  }
}

TEST(ExhaustiveFailures, AbileneAllPairsOfFailures) {
  Fixture fx(topo::abilene(), embed::EmbedOptions{});
  for (const auto& failures : net::enumerate_failures(fx.g, 2)) {
    expect_full_recovery(fx, failures, fx.pr, "P2/abilene");
  }
}

TEST(ExhaustiveFailures, AbileneAllTriplesOfFailures) {
  Fixture fx(topo::abilene(), embed::EmbedOptions{});
  for (const auto& failures : net::enumerate_failures(fx.g, 3)) {
    expect_full_recovery(fx, failures, fx.pr, "P2/abilene3");
  }
}

TEST(ExhaustiveFailures, K4AllTripleFailures) {
  Fixture fx(graph::complete(4), embed::EmbedOptions{});
  for (const auto& failures : net::enumerate_failures(fx.g, 3)) {
    expect_full_recovery(fx, failures, fx.pr, "P2/k4");
  }
}

TEST(ExhaustiveFailures, GridAllPairsOfFailures) {
  Fixture fx(graph::grid(3, 3), embed::EmbedOptions{});
  for (const auto& failures : net::enumerate_failures(fx.g, 2)) {
    expect_full_recovery(fx, failures, fx.pr, "P2/grid");
  }
}

// ---- P3: embedding quality is the real precondition -------------------------

class RandomPlanarSuite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPlanarSuite, SampledMultiFailuresRecoveredAtGenusZero) {
  const std::uint64_t seed = GetParam();
  graph::Rng rng(seed);
  const std::size_t n = 6 + rng.below(10);
  Graph g = graph::random_outerplanar(n, 1 + rng.below(n), rng);

  Fixture fx(std::move(g), embed::EmbedOptions{});
  ASSERT_EQ(fx.emb.genus, 0);
  ASSERT_TRUE(fx.emb.supports_pr());

  const std::size_t k = 1 + rng.below(std::max<std::size_t>(1, fx.g.edge_count() / 3));
  // Sampling without the connectivity filter also exercises partition cases.
  for (const auto& failures : net::sample_any_failures(fx.g, k, 12, rng)) {
    expect_full_recovery(fx, failures, fx.pr, "P3/planar");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanarSuite,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(RandomNonPlanarSuite, SingleFailuresStillRecoveredWhenSafe) {
  // Single-failure recovery needs only PR safety, not genus 0: the diverted
  // packet walks the one complementary face, whose exit (the far side of the
  // failed link) always lies on that same face.
  std::size_t tested = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    graph::Rng rng(seed);
    const std::size_t n = 6 + rng.below(6);
    Graph g = graph::random_two_edge_connected(n, n, rng);
    Fixture fx(std::move(g), embed::EmbedOptions{});
    if (!fx.emb.supports_pr()) continue;  // search may fail on dense graphs
    ++tested;
    for (const auto& failures : net::all_single_failures(fx.g)) {
      expect_full_recovery(fx, failures, fx.pr, "P3/nonplanar-single");
    }
  }
  EXPECT_GE(tested, 6U) << "genus search found too few PR-safe embeddings";
}

TEST(NonPlanarLivelock, HandleBoundaryStrandsPacketDespiteSafety) {
  // Reproduction finding F2, pinned as a regression:
  // on a genus-5 PR-safe embedding of a dense 9-node graph, the failure set
  // {3-6, 7-8, 4-5, 0-2, 1-3} leaves 3 and 1 connected, yet the packet orbits
  // the joined-region boundary 3->8->4 forever: on a handle, a boundary
  // component need not separate the surface, so the decreasing-distance exit
  // of Section 4.3 is never reached.  The paper's Section 5.2 argument
  // implicitly assumes sphere-like separation.
  Graph g(9);
  const std::pair<NodeId, NodeId> edges[] = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8},
      {8, 0}, {1, 3}, {4, 6}, {0, 2}, {0, 7}, {0, 5}, {4, 7}, {3, 6},
      {5, 7}, {1, 6}, {4, 8}, {0, 3}, {3, 8}, {1, 7}, {1, 5}, {1, 4}};
  for (const auto& [u, v] : edges) g.add_edge(u, v);

  const std::vector<std::vector<NodeId>> orders = {
      {1, 5, 3, 7, 2, 8}, {2, 7, 3, 5, 4, 0, 6}, {3, 0, 1},
      {2, 0, 4, 1, 6, 8}, {6, 1, 5, 8, 3, 7},    {6, 7, 0, 4, 1},
      {1, 7, 4, 3, 5},    {6, 8, 0, 4, 5, 1},    {4, 7, 0, 3}};
  auto rot = embed::RotationSystem::from_neighbor_orders(g, orders);
  const auto faces = embed::trace_faces(rot);
  ASSERT_TRUE(embed::pr_safe(g, faces)) << "the finding is about SAFE embeddings";
  ASSERT_EQ(embed::euler_genus(g, faces), 5);

  const route::RoutingDb routes(g);
  const CycleFollowingTable cycles(rot);
  PacketRecycling pr(routes, cycles);

  net::Network network(g);
  for (const auto& [u, v] :
       {std::pair<NodeId, NodeId>{3, 6}, {7, 8}, {4, 5}, {0, 2}, {1, 3}}) {
    network.fail_link(*g.find_edge(u, v));
  }
  ASSERT_TRUE(graph::same_component(g, 3, 1, &network.failed_links()));

  const auto trace = net::route_packet(network, pr, 3, 1);
  EXPECT_FALSE(trace.delivered());
  EXPECT_EQ(trace.drop_reason, net::DropReason::kTtlExpired);
  // FCP, which carries explicit failure state, has no such blind spot.
  route::FcpRouting fcp(g);
  EXPECT_TRUE(net::route_packet(network, fcp, 3, 1).delivered());
}

TEST(EmbeddingQuality, SafeRandomRotationsRecoverSingleFailures) {
  // Random rotations that happen to be PR-safe still enjoy the single-failure
  // guarantee: low genus is an optimisation, safety is the requirement.
  graph::Rng rng(1234);
  const Graph proto_graph = topo::figure1();
  std::size_t safe_found = 0;
  for (int attempt = 0; attempt < 200 && safe_found < 5; ++attempt) {
    auto rot = embed::RotationSystem::random(proto_graph, rng);
    const auto faces = embed::trace_faces(rot);
    if (!embed::pr_safe(proto_graph, faces)) continue;
    ++safe_found;
    Fixture fx(topo::figure1(), rot);
    for (const auto& failures : net::all_single_failures(fx.g)) {
      expect_full_recovery(fx, failures, fx.pr, "P3/safe-random");
    }
  }
  EXPECT_GE(safe_found, 1U) << "no PR-safe random rotation found to test";
}

TEST(EmbeddingQuality, SelfPairedEdgesAreExactlyTheUnprotectedOnes) {
  // Characterisation of the reproduction finding: under figure1's identity
  // rotation (genus 1, two self-paired links B-D and C-E), failing a
  // self-paired link strands some recoverable packets, while every other
  // single failure is fully recovered.
  embed::EmbedOptions opts;
  opts.strategy = embed::EmbedStrategy::kIdentity;
  Fixture fx(topo::figure1(), opts);

  const auto unsafe = embed::self_paired_edges(fx.g, fx.emb.faces);
  ASSERT_EQ(unsafe.size(), 2U);
  const auto name = [&](graph::EdgeId e) {
    return fx.g.display_name(fx.g.edge_u(e)) + "-" + fx.g.display_name(fx.g.edge_v(e));
  };
  EXPECT_EQ(name(unsafe[0]), "B-D");
  EXPECT_EQ(name(unsafe[1]), "C-E");

  for (const auto& failures : net::all_single_failures(fx.g)) {
    const graph::EdgeId e = failures.elements()[0];
    const bool is_unsafe =
        std::find(unsafe.begin(), unsafe.end(), e) != unsafe.end();
    net::Network network(fx.g);
    network.fail_link(e);
    std::size_t drops = 0;
    for (NodeId s = 0; s < fx.g.node_count(); ++s) {
      for (NodeId t = 0; t < fx.g.node_count(); ++t) {
        if (s == t) continue;
        if (!net::route_packet(network, fx.pr, s, t).delivered()) ++drops;
      }
    }
    if (is_unsafe) {
      EXPECT_GT(drops, 0U) << "self-paired link " << name(e) << " must strand packets";
    } else {
      EXPECT_EQ(drops, 0U) << "safe link " << name(e) << " must be fully recovered";
    }
  }
}

// ---- P4: stretch sanity on the paper's topologies ---------------------------

TEST(StretchSanity, UnaffectedPairsKeepShortestPaths) {
  Fixture fx(topo::abilene(), embed::EmbedOptions{});
  const auto failed_edge =
      *fx.g.find_edge(*fx.g.find_node("Seattle"), *fx.g.find_node("Denver"));
  net::Network network(fx.g);
  network.fail_link(failed_edge);
  for (NodeId s = 0; s < fx.g.node_count(); ++s) {
    for (NodeId t = 0; t < fx.g.node_count(); ++t) {
      if (s == t) continue;
      const auto trace = net::route_packet(network, fx.pr, s, t);
      ASSERT_TRUE(trace.delivered());
      bool affected = false;
      {
        NodeId v = s;
        while (v != t) {
          const auto d = fx.routes.next_dart(v, t);
          if (graph::dart_edge(d) == failed_edge) {
            affected = true;
            break;
          }
          v = fx.g.dart_head(d);
        }
      }
      if (!affected) {
        EXPECT_DOUBLE_EQ(trace.cost, fx.routes.cost(s, t))
            << "unaffected pair took a detour: " << s << "->" << t;
      } else {
        EXPECT_GT(trace.cost, fx.routes.cost(s, t) - 1e-9);
      }
    }
  }
}

TEST(StretchSanity, OneBitVariantNeverBeatsShortestPath) {
  Fixture fx(topo::geant(), embed::EmbedOptions{});
  graph::Rng rng(77);
  for (const auto& failures : net::sample_connected_failures(fx.g, 1, 10, rng)) {
    net::Network network(fx.g);
    for (auto e : failures.elements()) network.fail_link(e);
    for (NodeId s = 0; s < fx.g.node_count(); s += 3) {
      for (NodeId t = 0; t < fx.g.node_count(); t += 3) {
        if (s == t) continue;
        const auto trace = net::route_packet(network, fx.pr1, s, t);
        ASSERT_TRUE(trace.delivered());
        EXPECT_GE(trace.cost, fx.routes.cost(s, t) - 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace pr::core
