// Tests for the genus-minimising local search and the top-level embedder.
#include "embed/genus_opt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "embed/embedder.hpp"
#include "graph/generators.hpp"
#include "reference_genus_search.hpp"
#include "topo/topologies.hpp"

namespace pr::embed {
namespace {

TEST(GenusOpt, PlanarGraphReachesGenusZero) {
  const Graph g = graph::grid(3, 3);
  const GenusSearchOptions opts;
  const auto result = minimize_genus(g, opts);
  EXPECT_EQ(result.genus, 0);
  // A sphere embedding with every link safe cannot be beaten: the search
  // stops there.
  EXPECT_TRUE(pr_safe(g, trace_faces(result.rotation)));
  EXPECT_LT(result.iterations_used, opts.max_iterations);
}

TEST(GenusOpt, K5ReachesKnownMinimumGenusOne) {
  const Graph g = graph::k5();
  GenusSearchOptions opts;
  opts.max_iterations = 8000;
  const auto result = minimize_genus(g, opts);
  EXPECT_EQ(result.genus, 1);  // gamma(K5) = 1
}

TEST(GenusOpt, K33ReachesKnownMinimumGenusOne) {
  const Graph g = graph::k33();
  GenusSearchOptions opts;
  opts.max_iterations = 8000;
  const auto result = minimize_genus(g, opts);
  EXPECT_EQ(result.genus, 1);  // gamma(K3,3) = 1
}

TEST(GenusOpt, PetersenReachesKnownMinimumGenusOne) {
  const Graph g = graph::petersen();
  GenusSearchOptions opts;
  opts.max_iterations = 20000;
  const auto result = minimize_genus(g, opts);
  EXPECT_EQ(result.genus, 1);  // gamma(Petersen) = 1
}

TEST(GenusOpt, ResultAlwaysValidEmbedding) {
  graph::Rng rng(31);
  const Graph g = graph::erdos_renyi(9, 0.5, rng);
  GenusSearchOptions opts;
  opts.max_iterations = 500;
  const auto result = minimize_genus(g, opts);
  const auto faces = trace_faces(result.rotation);
  EXPECT_NO_THROW(check_face_set(result.rotation, faces));
  EXPECT_EQ(euler_genus(g, faces), result.genus);
}

TEST(GenusOpt, ZeroBudgetStillValid) {
  GenusSearchOptions opts;
  opts.max_iterations = 0;
  // The graph must outlive the result: RotationSystem references it, and
  // trace_faces below reads through that reference.
  const Graph g = graph::k5();
  const auto result = minimize_genus(g, opts);
  EXPECT_GE(result.genus, 1);
  EXPECT_NO_THROW(check_face_set(result.rotation, trace_faces(result.rotation)));
}

TEST(GenusOpt, DeterministicForFixedSeed) {
  const Graph g = graph::petersen();
  GenusSearchOptions opts;
  opts.max_iterations = 1000;
  const auto a = minimize_genus(g, opts);
  const auto b = minimize_genus(g, opts);
  EXPECT_EQ(a.genus, b.genus);
  EXPECT_EQ(a.iterations_used, b.iterations_used);
}

// The live search against the full-re-trace reference search
// (tests/reference_genus_search.hpp): same order at every node, same genus,
// same iterations_used.

std::vector<std::pair<std::string, Graph>> reference_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("K5", graph::k5());
  graphs.emplace_back("K3,3", graph::k33());
  graphs.emplace_back("Petersen", graph::petersen());
  graphs.emplace_back("Teleglobe", topo::teleglobe());
  graph::Rng isp_rng(0xB0B0 + 64);
  graphs.emplace_back(
      "ISP-64", graph::hierarchical_isp(graph::sized_isp_params(64), isp_rng).graph);
  graph::Rng er_rng(31);
  graphs.emplace_back("ER(12, 0.5)", graph::erdos_renyi(12, 0.5, er_rng));
  graph::Rng ring_rng(5);
  graphs.emplace_back("2EC(16, +12)", graph::random_two_edge_connected(16, 12, ring_rng));
  graphs.emplace_back("grid(3,3)", graph::grid(3, 3));
  return graphs;
}

void expect_matches_reference(const std::string& name, const Graph& g,
                              const GenusSearchOptions& opts) {
  SCOPED_TRACE(name + ", seed " + std::to_string(opts.seed) + ", budget " +
               std::to_string(opts.max_iterations) + ", restarts " +
               std::to_string(opts.restarts));
  const GenusSearchResult want = test_support::reference_minimize_genus(g, opts);
  const GenusSearchResult got = minimize_genus(g, opts);
  EXPECT_EQ(got.genus, want.genus);
  EXPECT_EQ(got.iterations_used, want.iterations_used);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto a = got.rotation.order_at(v);
    const auto b = want.rotation.order_at(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "order at node " << v;
  }
}

TEST(GenusOptReference, MatchesFullRetraceSearchOnSmallBudgets) {
  for (const auto& [name, g] : reference_graphs()) {
    for (const std::uint64_t seed : {0x5eedULL, 3ULL, 0xC0FFEEULL}) {
      for (const std::size_t restarts : {1U, 4U, 6U}) {
        // 0 and 1 moves, fewer moves than restarts (one move per restart
        // until the budget runs out), and enough moves for both phases to
        // accept and reject.
        for (const std::size_t budget : {std::size_t{0}, std::size_t{1}, restarts - 1,
                                         std::size_t{400}}) {
          GenusSearchOptions opts;
          opts.max_iterations = budget;
          opts.restarts = restarts;
          opts.seed = seed;
          expect_matches_reference(name, g, opts);
        }
      }
    }
  }
}

// One seed: a Debug build re-checks every move of the live search by a full
// trace, and this test then takes one to two minutes under ASan.
TEST(GenusOptReference, MatchesFullRetraceSearchAtTheDefaultBudget) {
  for (const auto& [name, g] : reference_graphs()) {
    expect_matches_reference(name, g, GenusSearchOptions{});
  }
}

TEST(Embedder, AutoUsesPlanarWhenPossible) {
  const Graph g = graph::grid(4, 4);
  const auto emb = embed(g);
  EXPECT_EQ(emb.strategy_used, EmbedStrategy::kPlanar);
  EXPECT_EQ(emb.genus, 0);
  EXPECT_TRUE(emb.planar());
}

TEST(Embedder, AutoFallsBackToSearchOnNonPlanar) {
  const Graph g = graph::k5();
  const auto emb = embed(g);
  EXPECT_EQ(emb.strategy_used, EmbedStrategy::kLocalSearch);
  EXPECT_GE(emb.genus, 1);
}

TEST(Embedder, PlanarStrategyThrowsOnNonPlanar) {
  EmbedOptions opts;
  opts.strategy = EmbedStrategy::kPlanar;
  EXPECT_THROW((void)embed(graph::k33(), opts), std::invalid_argument);
}

TEST(Embedder, RandomAndIdentityAlwaysSucceed) {
  const Graph g = graph::petersen();
  for (EmbedStrategy s : {EmbedStrategy::kRandom, EmbedStrategy::kIdentity}) {
    EmbedOptions opts;
    opts.strategy = s;
    const auto emb = embed(g, opts);
    EXPECT_EQ(emb.strategy_used, s);
    EXPECT_GE(emb.genus, 1);  // Petersen cannot be genus 0
    EXPECT_NO_THROW(check_face_set(emb.rotation, emb.faces));
  }
}

TEST(Embedder, FacesMatchRotation) {
  const Graph g = graph::ring(8);
  const auto emb = embed(g);
  EXPECT_EQ(emb.faces.face_count(), 2U);
  EXPECT_EQ(emb.faces.face_of.size(), g.dart_count());
}

}  // namespace
}  // namespace pr::embed
