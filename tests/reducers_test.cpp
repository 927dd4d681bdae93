// Tests for the streaming sweep reducers: the P^2 quantile estimator against
// an exact sorted-sample oracle (tiny-n exactness, duplicate-heavy and
// random streams), the bounded top-K heap's deterministic replacement rule,
// and the running summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/checkpoint.hpp"
#include "analysis/reducers.hpp"

namespace pr {
namespace {

using analysis::P2Quantile;
using analysis::P2QuantileSet;
using analysis::RunningSummary;
using analysis::TopK;

/// Exact nearest-rank quantile: sorted[ceil(q n) - 1].
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

// ---------------------------------------------------------------------------
// P2Quantile

TEST(P2Quantile, RejectsInvalidQuantilesAndSamples) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);

  P2Quantile p(0.5);
  EXPECT_THROW(p.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(p.add(std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_EQ(p.count(), 0u);
}

TEST(P2Quantile, EmptyEstimateIsZero) {
  EXPECT_EQ(P2Quantile(0.9).estimate(), 0.0);
}

TEST(P2Quantile, TinyStreamsMatchSortedOracleExactly) {
  // With five or fewer samples the estimator must BE the nearest-rank
  // quantile, bit for bit, for every prefix and several quantiles.
  const std::vector<double> stream{7.5, -2.0, 7.5, 0.25, 3.0};
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    P2Quantile estimator(q);
    std::vector<double> seen;
    for (const double x : stream) {
      estimator.add(x);
      seen.push_back(x);
      EXPECT_EQ(estimator.estimate(), exact_quantile(seen, q))
          << "q=" << q << " n=" << seen.size();
    }
  }
}

TEST(P2Quantile, ConstantStreamIsExactAtAnyLength) {
  P2Quantile estimator(0.9);
  for (int i = 0; i < 1000; ++i) estimator.add(4.25);
  EXPECT_EQ(estimator.estimate(), 4.25);
  EXPECT_EQ(estimator.count(), 1000u);
}

TEST(P2Quantile, DuplicateHeavyStreamStaysNearTheMass) {
  // 90% of the stream is the value 3.0; the median must sit on (or next to)
  // that plateau despite the parabolic marker updates.
  std::mt19937_64 engine(7);
  std::uniform_real_distribution<double> outlier(0.0, 100.0);
  P2Quantile median(0.5);
  std::vector<double> all;
  for (int i = 0; i < 1000; ++i) {
    const double x = (i % 10 == 9) ? outlier(engine) : 3.0;
    median.add(x);
    all.push_back(x);
  }
  EXPECT_EQ(exact_quantile(all, 0.5), 3.0);
  EXPECT_NEAR(median.estimate(), 3.0, 0.1);
}

TEST(P2Quantile, ConvergesToSortedOracleOnRandomStreams) {
  std::mt19937_64 engine(42);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> all;
  P2Quantile p50(0.5);
  P2Quantile p90(0.9);
  P2Quantile p99(0.99);
  for (int i = 0; i < 20000; ++i) {
    const double x = uniform(engine);
    all.push_back(x);
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  EXPECT_NEAR(p50.estimate(), exact_quantile(all, 0.5), 0.02);
  EXPECT_NEAR(p90.estimate(), exact_quantile(all, 0.9), 0.02);
  EXPECT_NEAR(p99.estimate(), exact_quantile(all, 0.99), 0.02);
}

TEST(P2Quantile, IsAPureFunctionOfTheInsertionSequence) {
  // The determinism contract: identical sequences give bit-identical state.
  std::mt19937_64 engine(3);
  std::uniform_real_distribution<double> uniform(-5.0, 5.0);
  std::vector<double> stream;
  for (int i = 0; i < 500; ++i) stream.push_back(uniform(engine));

  P2Quantile a(0.9);
  P2Quantile b(0.9);
  for (const double x : stream) {
    a.add(x);
    b.add(x);
  }
  EXPECT_EQ(a.estimate(), b.estimate());
  EXPECT_EQ(a.count(), b.count());
}

TEST(P2QuantileSet, FansOutToEveryQuantile) {
  P2QuantileSet set({0.5, 0.9});
  for (int i = 1; i <= 100; ++i) set.add(static_cast<double>(i));
  const auto estimates = set.estimates();
  ASSERT_EQ(estimates.size(), 2u);
  EXPECT_NEAR(estimates[0], 50.0, 2.0);
  EXPECT_NEAR(estimates[1], 90.0, 2.0);
}

// ---------------------------------------------------------------------------
// TopK

TEST(TopK, KeepsTheKLargestKeys) {
  TopK<int> top(3);
  for (int i = 0; i < 10; ++i) {
    top.add(static_cast<double>(i % 7), static_cast<std::uint64_t>(i), i);
  }
  const auto sorted = top.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].key, 6.0);
  EXPECT_EQ(sorted[1].key, 5.0);
  EXPECT_EQ(sorted[2].key, 4.0);
}

TEST(TopK, TiesKeepTheEarliestId) {
  // Five equal keys into a 2-slot heap: the deterministic rule keeps the two
  // smallest ids, whatever the arrival order.
  for (const std::vector<std::uint64_t>& order :
       {std::vector<std::uint64_t>{0, 1, 2, 3, 4},
        std::vector<std::uint64_t>{4, 3, 2, 1, 0},
        std::vector<std::uint64_t>{2, 4, 0, 3, 1}}) {
    TopK<int> top(2);
    for (const std::uint64_t id : order) top.add(1.0, id, 0);
    const auto sorted = top.sorted();
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_EQ(sorted[0].id, 0u);
    EXPECT_EQ(sorted[1].id, 1u);
  }
}

TEST(TopK, ZeroCapacityStaysEmpty) {
  TopK<int> top(0);
  top.add(1.0, 0, 0);
  EXPECT_EQ(top.size(), 0u);
  EXPECT_TRUE(top.sorted().empty());
}

// ---------------------------------------------------------------------------
// RunningSummary

TEST(RunningSummary, TracksCountSumAndExtrema) {
  RunningSummary s;
  EXPECT_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(-1.0);
  s.add(5.0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 6.0);
  EXPECT_EQ(s.min, -1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.mean(), 2.0);
}

// ---------------------------------------------------------------------------
// Checkpoint serialization: state()/from_state() snapshots and the binary
// codec they travel through (PR 8).  The bar everywhere is bit-identity:
// a restored reducer must behave exactly like the instance it snapshot.

TEST(P2State, RoundTripMidStreamIsBitIdentical) {
  // Snapshot at n = 3 (inside the exact tiny-n path, heights_ is the raw
  // sample buffer), n = 5 (the marker-initialisation boundary) and n = 100
  // (steady parabolic state); the restored twin must track the original
  // bit-for-bit through arbitrary future samples.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> dist(0.0, 10.0);
  for (const std::size_t cut : {3u, 5u, 100u}) {
    P2Quantile original(0.9);
    for (std::size_t i = 0; i < cut; ++i) original.add(dist(rng));

    P2Quantile restored = P2Quantile::from_state(original.state());
    EXPECT_EQ(restored.quantile(), original.quantile());
    EXPECT_EQ(restored.count(), original.count());
    EXPECT_EQ(restored.estimate(), original.estimate()) << "cut " << cut;

    for (std::size_t i = 0; i < 200; ++i) {
      const double x = dist(rng);
      original.add(x);
      restored.add(x);
      ASSERT_EQ(restored.estimate(), original.estimate())
          << "cut " << cut << " diverged after " << i << " more samples";
    }
    EXPECT_EQ(restored.count(), original.count());
  }
}

TEST(P2State, TinyNSnapshotKeepsExactOracle) {
  // Interrupt inside the exact regime, resume, finish: the estimate must
  // still equal the sorted-sample oracle over ALL samples.
  P2Quantile p(0.5);
  p.add(9.0);
  p.add(1.0);
  p.add(5.0);
  P2Quantile resumed = P2Quantile::from_state(p.state());
  resumed.add(3.0);
  EXPECT_EQ(resumed.estimate(), exact_quantile({9.0, 1.0, 5.0, 3.0}, 0.5));
}

TEST(P2State, RejectsStructurallyInvalidSnapshots) {
  P2Quantile p(0.5);
  for (double x : {1.0, 2.0, 3.0}) p.add(x);

  analysis::P2State bad_q = p.state();
  bad_q.quantile = 1.5;
  EXPECT_THROW((void)P2Quantile::from_state(bad_q), std::invalid_argument);

  analysis::P2State bad_height = p.state();
  bad_height.heights[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)P2Quantile::from_state(bad_height), std::invalid_argument);

  // Positions only matter once the markers are live (count >= 5).
  P2Quantile live(0.5);
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) live.add(x);
  analysis::P2State bad_pos = live.state();
  bad_pos.positions[2] = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)P2Quantile::from_state(bad_pos), std::invalid_argument);
}

TEST(TopK, SortedReplayRestoresTheHeapExactly) {
  // Checkpoint restore rebuilds a TopK by re-adding its sorted() entries.
  // Ties are the hard case: the deterministic rule keeps the EARLIEST id on
  // key ties, and the restored heap must preserve that through future adds.
  TopK<int> original(3);
  original.add(5.0, 10, 1);
  original.add(5.0, 2, 2);   // ties 5.0: earlier id wins eventually
  original.add(5.0, 7, 3);
  original.add(5.0, 4, 4);   // displaces id 10 (largest id among the ties)
  original.add(1.0, 1, 5);   // too weak, dropped

  TopK<int> restored(3);
  for (const auto& e : original.sorted()) restored.add(e.key, e.id, e.value);
  ASSERT_EQ(restored.size(), original.size());

  // Same future stream into both; surviving sets must stay identical.
  const std::vector<std::pair<double, std::uint64_t>> more = {
      {5.0, 3}, {6.0, 50}, {5.0, 99}};
  for (const auto& [key, id] : more) {
    original.add(key, id, 7);
    restored.add(key, id, 7);
  }
  const auto a = original.sorted();
  const auto b = restored.sorted();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].value, b[i].value) << i;
  }
}

TEST(Checkpoint, FieldRoundTripIsExact) {
  analysis::CheckpointWriter w;
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(0.1);                                        // not representable exactly
  w.f64(-0.0);                                       // sign bit must survive
  w.f64(std::numeric_limits<double>::denorm_min());  // subnormal
  w.f64(-std::numeric_limits<double>::infinity());
  w.str("storm-sweep");
  w.str("");  // empty string is a valid field
  w.str(std::string("\x00\x01\xFF", 3));  // embedded NUL and high bytes
  const std::string blob = w.finish();

  analysis::CheckpointReader r(blob);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), 0.1);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.str(), "storm-sweep");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("\x00\x01\xFF", 3));
  EXPECT_TRUE(r.exhausted());
}

TEST(Checkpoint, DetectsCorruptionAndTruncation) {
  analysis::CheckpointWriter w;
  w.u64(42);
  w.str("payload");
  const std::string blob = w.finish();

  // Every single-byte flip -- magic, payload or checksum -- must be caught.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string tampered = blob;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x01);
    EXPECT_THROW((void)analysis::CheckpointReader(tampered),
                 analysis::CheckpointError)
        << "flip at byte " << i;
  }
  // Truncation at every prefix length.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(
        (void)analysis::CheckpointReader(std::string_view(blob).substr(0, len)),
        analysis::CheckpointError)
        << "truncated to " << len;
  }
}

TEST(Checkpoint, ReadPastEndThrowsInsteadOfUB) {
  analysis::CheckpointWriter w;
  w.u32(7);
  const std::string blob = w.finish();
  analysis::CheckpointReader r(blob);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW((void)r.u64(), analysis::CheckpointError);

  // A declared string length larger than the remaining payload must throw,
  // not allocate or read out of bounds.
  analysis::CheckpointWriter lying;
  lying.u64(1u << 20);  // "string of 1 MiB follows" -- but nothing does
  const std::string short_blob = lying.finish();
  analysis::CheckpointReader r2(short_blob);
  EXPECT_THROW((void)r2.str(), analysis::CheckpointError);
}

TEST(Checkpoint, WriterFinishIsSingleUse) {
  analysis::CheckpointWriter w;
  w.u32(1);
  (void)w.finish();
  EXPECT_THROW((void)w.finish(), analysis::CheckpointError);
}

}  // namespace
}  // namespace pr
