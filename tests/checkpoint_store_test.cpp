// Durability layer of the crash-safe sweep stack: the atomic-write helper,
// the generation-numbered CheckpointStore (rotation, quarantine, cross-
// process numbering), the CheckpointReader's located error reports -- every
// single-byte corruption and every truncation of a sealed blob must throw
// CheckpointError, never misbehave (the table-driven loops below run under
// ASan/UBSan in CI) -- and the CheckpointCadence spec parser.  Ends with the
// integration that motivates all of it: a storm sweep auto-checkpointing
// into a real store mid-run, whose persisted generations resume to results
// bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/checkpoint.hpp"
#include "analysis/checkpoint_store.hpp"
#include "analysis/protocols.hpp"
#include "analysis/storm.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"
#include "net/storm_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/run_control.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"
#include "util/atomic_file.hpp"

namespace pr {
namespace {

namespace fs = std::filesystem;

using analysis::CheckpointError;
using analysis::CheckpointReader;
using analysis::CheckpointStore;
using analysis::CheckpointStoreError;
using analysis::CheckpointStoreOptions;
using analysis::CheckpointWriter;
using analysis::checkpoint_digest;
using sim::CheckpointCadence;
using sim::RunControl;
using sim::SweepExecutor;

/// A per-test scratch directory under the system temp root, wiped on both
/// ends so a crashed earlier run cannot leak state into this one.
struct TempDir {
  fs::path path;

  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("pr_ckpt_store_test_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }

  [[nodiscard]] std::string str() const { return path.string(); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A structurally valid sealed blob whose payload varies with `tag`, so two
/// generations are distinguishable byte-for-byte.
std::string sealed_blob(std::uint64_t tag) {
  CheckpointWriter w;
  w.u32(7);
  w.u64(tag);
  w.f64(-0.0);
  w.str("generation payload " + std::to_string(tag));
  return w.finish();
}

// ---------------------------------------------------------------------------
// util::atomic_write_file

TEST(AtomicFile, RoundTripReplaceAndNoTempLeftovers) {
  TempDir dir;
  const std::string target = dir.file("artifact.json");

  util::atomic_write_file(target, "first contents");
  EXPECT_EQ(read_file(target), "first contents");

  // Replacement, including binary bytes and an embedded NUL.
  const std::string binary = std::string("a\0b\xff", 4) + "tail";
  util::atomic_write_file(target, binary);
  EXPECT_EQ(read_file(target), binary);

  // The dot-temp must be gone after every successful write: the directory
  // holds exactly the target.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "artifact.json");
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicFile, FailureNamesThePathAndLeavesNoTarget) {
  TempDir dir;
  const std::string target = dir.file("no_such_subdir/artifact.json");
  try {
    util::atomic_write_file(target, "contents");
    FAIL() << "expected AtomicWriteError";
  } catch (const util::AtomicWriteError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_subdir"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(target));
}

// ---------------------------------------------------------------------------
// CheckpointStore

TEST(CheckpointStoreTest, GenerationsAreMonotonicAcrossInstances) {
  TempDir dir;
  EXPECT_EQ(CheckpointStore::generation_filename(42), "ckpt-00000042.prckpt");

  {
    CheckpointStore store(dir.str());
    EXPECT_EQ(store.latest_generation(), 0u);
    EXPECT_FALSE(store.load_latest().has_value());
    EXPECT_EQ(store.persist(sealed_blob(1)), 1u);
    EXPECT_EQ(store.persist(sealed_blob(2)), 2u);
    EXPECT_EQ(store.latest_generation(), 2u);
    EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_TRUE(fs::exists(dir.file("ckpt-00000002.prckpt")));
  }

  // A new instance over the same directory -- a restarted process -- must
  // continue the numbering, not restart it (the supervisor orders the story
  // of a crash-looping sweep by generation number).
  CheckpointStore store(dir.str());
  EXPECT_EQ(store.latest_generation(), 2u);
  EXPECT_EQ(store.persist(sealed_blob(3)), 3u);
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 3u);
  EXPECT_EQ(loaded->blob, sealed_blob(3));
}

TEST(CheckpointStoreTest, RotationKeepsOnlyTheNewest) {
  TempDir dir;
  CheckpointStoreOptions options;
  options.keep_generations = 3;
  CheckpointStore store(dir.str(), options);
  for (std::uint64_t tag = 1; tag <= 6; ++tag) {
    EXPECT_EQ(store.persist(sealed_blob(tag)), tag);
    EXPECT_LE(store.generations().size(), 3u);
  }
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_FALSE(fs::exists(dir.file("ckpt-00000001.prckpt")));
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 6u);
  EXPECT_EQ(loaded->blob, sealed_blob(6));
}

TEST(CheckpointStoreTest, RejectsKeepZeroAndForeignFiles) {
  TempDir dir;
  EXPECT_THROW(CheckpointStore(dir.str(), CheckpointStoreOptions{0}),
               CheckpointStoreError);

  // Stray files that merely look similar are ignored by the scan, not
  // parsed, not rotated, not quarantined.
  util::atomic_write_file(dir.file("ckpt-notanumber.prckpt"), "junk");
  util::atomic_write_file(dir.file("README"), "not a checkpoint");
  CheckpointStore store(dir.str());
  EXPECT_EQ(store.latest_generation(), 0u);
  EXPECT_TRUE(store.generations().empty());
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_EQ(store.quarantined(), 0u);
  EXPECT_TRUE(fs::exists(dir.file("ckpt-notanumber.prckpt")));
}

TEST(CheckpointStoreTest, CorruptNewestIsQuarantinedWithFallback) {
  TempDir dir;
  CheckpointStore store(dir.str());
  store.persist(sealed_blob(1));
  store.persist(sealed_blob(2));

  // Bit-rot the newest generation on disk (overwrite, keep the name).
  std::string corrupt = sealed_blob(2);
  corrupt[corrupt.size() / 2] ^= 0x20;
  util::atomic_write_file(dir.file("ckpt-00000002.prckpt"), corrupt);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->blob, sealed_blob(1));
  EXPECT_EQ(store.quarantined(), 1u);

  // The evidence moved aside -- with a reason note -- instead of vanishing.
  EXPECT_FALSE(fs::exists(dir.file("ckpt-00000002.prckpt")));
  const std::string quarantined = dir.file("quarantine/ckpt-00000002.prckpt");
  ASSERT_TRUE(fs::exists(quarantined));
  EXPECT_EQ(read_file(quarantined), corrupt);
  const std::string reason = read_file(quarantined + ".reason");
  EXPECT_NE(reason.find("checksum mismatch"), std::string::npos) << reason;
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1}));

  // The next persist still numbers PAST the quarantined generation.
  EXPECT_EQ(store.persist(sealed_blob(3)), 3u);
}

TEST(CheckpointStoreTest, AllGenerationsCorruptYieldsNullopt) {
  TempDir dir;
  CheckpointStore store(dir.str());
  store.persist(sealed_blob(1));
  store.persist(sealed_blob(2));
  util::atomic_write_file(dir.file("ckpt-00000001.prckpt"), "short");
  std::string truncated = sealed_blob(2);
  truncated.resize(truncated.size() - 3);
  util::atomic_write_file(dir.file("ckpt-00000002.prckpt"), truncated);

  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_EQ(store.quarantined(), 2u);
  EXPECT_TRUE(store.generations().empty());
}

// ---------------------------------------------------------------------------
// CheckpointReader diagnostics and corruption hardening

TEST(CheckpointReaderTest, ErrorsNameFieldAndOffset) {
  try {  // shorter than magic + checksum
    CheckpointReader r("tiny");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("blob too short"), std::string::npos)
        << e.what();
  }
  try {  // right length, wrong magic
    CheckpointReader r("XXXXXXXX01234567");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic at offset 0"),
              std::string::npos)
        << e.what();
  }
  try {  // sealed, then flipped: checksum must locate itself
    std::string blob = sealed_blob(5);
    blob[10] ^= 0x01;
    CheckpointReader r(blob);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch at offset"),
              std::string::npos)
        << e.what();
  }

  {  // reading past the payload names the field and the failing offset
    CheckpointWriter w;
    w.u32(9);
    const std::string blob = w.finish();
    CheckpointReader r(blob);
    EXPECT_EQ(r.u32(), 9u);
    try {
      (void)r.u64();
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("truncated u64"), std::string::npos) << what;
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
  }
  {  // a length prefix larger than the remaining payload: the str payload
    // read must fail by bounds check, never by reading past the buffer
    CheckpointWriter w;
    w.u64(1000);  // masquerades as a string length when misread
    const std::string blob = w.finish();
    CheckpointReader r(blob);
    try {
      (void)r.str();
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("str payload"), std::string::npos)
          << e.what();
    }
  }
}

/// Constructing a reader over `blob` and draining the sealed_blob schema.
/// Either step may throw; finishing silently with WRONG values is the only
/// failure mode (checked by the caller where values are predictable).
void drain_sealed_schema(const std::string& blob) {
  CheckpointReader r(blob);
  (void)r.u32();
  (void)r.u64();
  (void)r.f64();
  (void)r.str();
}

TEST(CheckpointReaderTest, EveryByteFlipAndTruncationIsDetected) {
  const std::string blob = sealed_blob(99);

  // Flip every bit of every byte in turn: magic, payload, length prefixes,
  // checksum.  Each mutation must throw CheckpointError -- the FNV-1a seal
  // catches payload flips, the magic check catches header flips -- and must
  // never crash or read out of bounds (this loop is the ASan/UBSan payload).
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x10, 0x80}) {
      std::string mutated = blob;
      mutated[i] = static_cast<char>(static_cast<unsigned char>(mutated[i]) ^ mask);
      EXPECT_THROW(drain_sealed_schema(mutated), CheckpointError)
          << "byte " << i << " mask " << static_cast<int>(mask);
    }
  }

  // Every proper prefix must be rejected too (truncation at any point).
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(drain_sealed_schema(blob.substr(0, len)), CheckpointError)
        << "truncated to " << len << " bytes";
  }
}

TEST(CheckpointDigestTest, MatchesFnv1a64AndSeparatesBlobs) {
  // Published FNV-1a 64 test vectors: the digest is a stable cross-process
  // fingerprint, so its values are part of the tool-output contract.
  EXPECT_EQ(checkpoint_digest(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(checkpoint_digest("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(checkpoint_digest(sealed_blob(1)), checkpoint_digest(sealed_blob(1)));
  EXPECT_NE(checkpoint_digest(sealed_blob(1)), checkpoint_digest(sealed_blob(2)));
}

// ---------------------------------------------------------------------------
// CheckpointCadence parsing

TEST(CheckpointCadenceTest, ParsesUnitAndTimeTerms) {
  EXPECT_FALSE(CheckpointCadence{}.any());

  CheckpointCadence c = CheckpointCadence::parse("500");
  EXPECT_EQ(c.units, 500u);
  EXPECT_EQ(c.period.count(), 0);
  EXPECT_TRUE(c.any());

  EXPECT_EQ(CheckpointCadence::parse("500u").units, 500u);
  EXPECT_EQ(CheckpointCadence::parse("250ms").period,
            std::chrono::milliseconds(250));
  EXPECT_EQ(CheckpointCadence::parse("2s").period,
            std::chrono::milliseconds(2000));

  c = CheckpointCadence::parse("100u,250ms");
  EXPECT_EQ(c.units, 100u);
  EXPECT_EQ(c.period, std::chrono::milliseconds(250));

  // Order-insensitive.
  c = CheckpointCadence::parse("1s,42");
  EXPECT_EQ(c.units, 42u);
  EXPECT_EQ(c.period, std::chrono::milliseconds(1000));
}

TEST(CheckpointCadenceTest, RejectsGarbageNamingVarAndValue) {
  const char* bad[] = {
      "",        // empty spec
      "0",       // zero units
      "0ms",     // zero period
      "12x",     // unknown suffix
      "ms",      // no digits
      "100,200", // duplicate unit terms
      "1s,2s",   // duplicate time terms
      "100u,",   // empty trailing term
      ",100",    // empty leading term
      "-5",      // not a count
  };
  for (const char* spec : bad) {
    try {
      (void)CheckpointCadence::parse(spec, "PR_CKPT_EVERY");
      FAIL() << "expected std::invalid_argument for '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PR_CKPT_EVERY"), std::string::npos)
          << spec << ": " << what;
      if (*spec != '\0') {
        EXPECT_NE(what.find(spec), std::string::npos) << spec << ": " << what;
      }
    }
  }
}

TEST(CheckpointCadenceTest, FromEnvReadsPrCkptEvery) {
  ::unsetenv("PR_CKPT_EVERY");
  EXPECT_FALSE(CheckpointCadence::from_env().any());

  ::setenv("PR_CKPT_EVERY", "50u,10ms", 1);
  const CheckpointCadence c = CheckpointCadence::from_env();
  EXPECT_EQ(c.units, 50u);
  EXPECT_EQ(c.period, std::chrono::milliseconds(10));

  ::setenv("PR_CKPT_EVERY", "oops", 1);
  EXPECT_THROW((void)CheckpointCadence::from_env(), std::invalid_argument);
  ::unsetenv("PR_CKPT_EVERY");
}

// ---------------------------------------------------------------------------
// Executor-level auto-checkpointing

TEST(AutoCheckpointTest, PersistedCursorsAreMonotonicCanonicalPrefixes) {
  SweepExecutor executor(4);
  RunControl control;
  constexpr std::size_t kUnits = 400;

  // Reducer state: the canonical-order running sum of unit indices; after
  // prefix [0, k) it is exactly k*(k-1)/2, so a serialized snapshot proves
  // the watermark was frozen while serialize ran.
  std::uint64_t sum = 0;
  std::vector<std::pair<std::size_t, std::string>> persisted;

  sim::AutoCheckpoint ckpt;
  ckpt.cadence.units = 25;
  ckpt.cadence.period = std::chrono::milliseconds(5);
  ckpt.serialize = [&](std::size_t k) {
    return std::to_string(k) + ":" + std::to_string(sum);
  };
  ckpt.persist = [&](std::size_t k, std::string&& blob) {
    persisted.emplace_back(k, std::move(blob));
  };

  const sim::SweepOutcome outcome = executor.run(
      kUnits,
      [](std::size_t, sim::WorkerContext&) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      },
      control, {.reduce = [&](std::size_t unit) { sum += unit; }, .checkpoint = &ckpt});

  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kUnits) * (kUnits - 1) / 2);
  EXPECT_EQ(outcome.checkpoint_failures, 0u);
  EXPECT_EQ(outcome.auto_checkpoints, persisted.size());
  ASSERT_GE(persisted.size(), 1u) << "sweep finished before the first tick?";

  std::size_t last = 0;
  for (const auto& [k, blob] : persisted) {
    EXPECT_GT(k, last) << "persisted cursors must be strictly increasing";
    EXPECT_LE(k, kUnits);
    last = k;
    // The blob is the sealed prefix [0, k): sum frozen at k*(k-1)/2.
    const std::uint64_t prefix_sum =
        static_cast<std::uint64_t>(k) * (k - 1) / 2;
    EXPECT_EQ(blob, std::to_string(k) + ":" + std::to_string(prefix_sum));
  }
}

TEST(AutoCheckpointTest, FailuresAreCountedNeverFatal) {
  SweepExecutor executor(2);
  RunControl control;
  std::uint64_t sum = 0;

  sim::AutoCheckpoint ckpt;
  ckpt.cadence.period = std::chrono::milliseconds(2);
  ckpt.serialize = [](std::size_t) -> std::string {
    throw std::runtime_error("serializer down");
  };
  ckpt.persist = [](std::size_t, std::string&&) {};

  const sim::SweepOutcome outcome = executor.run(
      200,
      [](std::size_t, sim::WorkerContext&) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      },
      control, {.reduce = [&](std::size_t unit) { sum += unit; }, .checkpoint = &ckpt});

  // Checkpointing is durability only: the sweep completes, results are
  // intact, the failures are merely counted.
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(sum, 200ull * 199 / 2);
  EXPECT_EQ(outcome.auto_checkpoints, 0u);
  EXPECT_GE(outcome.checkpoint_failures, 1u);
}

// ---------------------------------------------------------------------------
// Storm integration: auto-checkpoint into a real store, resume bit-identical

TEST(AutoCheckpointTest, StormGenerationsResumeBitIdentical) {
  TempDir dir;
  graph::Graph g = topo::abilene();
  analysis::ProtocolSuite suite(g);
  const traffic::TrafficMatrix demand =
      traffic::gravity_demand(g, 1e5, traffic::GravityMass::kDegree);
  const traffic::CapacityPlan plan = traffic::CapacityPlan::uniform(g, 5e4);
  graph::Rng catalog_rng{4};
  const net::SrlgCatalog catalog = net::random_srlgs(g, 6, 3, catalog_rng);
  const net::IndependentOutages model =
      net::IndependentOutages::uniform(catalog, 0.2);
  const std::vector<analysis::NamedFactory> protocols = {
      suite.spf(), suite.reconvergence()};
  analysis::StormSweepConfig config;
  config.scenarios = 600;
  config.seed = 77;
  config.top_k = 5;

  // The uninterrupted reference, reduced to its final checkpoint bytes: two
  // runs agree exactly iff their blobs (which serialize every reducer field
  // plus the cursor) agree byte-for-byte.
  std::string reference;
  {
    SweepExecutor serial(1);
    RunControl control;
    analysis::StormRunOptions options;
    options.control = &control;
    const analysis::StormRunResult run = analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, serial, options);
    ASSERT_TRUE(run.complete());
    reference = run.checkpoint;
    ASSERT_FALSE(reference.empty());
  }

  // The instrumented run: auto-checkpoint every 25 scenarios or 1 ms into a
  // real CheckpointStore, at 4 threads.
  CheckpointStore store(dir.str());
  std::vector<std::size_t> cursors;
  {
    SweepExecutor executor(4);
    RunControl control;
    analysis::StormRunOptions options;
    options.control = &control;
    options.checkpoint_cadence.units = 25;
    options.checkpoint_cadence.period = std::chrono::milliseconds(1);
    options.persist_checkpoint = [&](std::size_t completed, std::string&& blob) {
      cursors.push_back(completed);
      store.persist(blob);
    };
    const analysis::StormRunResult run = analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, options);
    ASSERT_TRUE(run.complete());
    EXPECT_EQ(run.outcome.auto_checkpoints, cursors.size());
    // The final state equals the reference regardless of checkpointing.
    EXPECT_EQ(run.checkpoint, reference);
  }
  ASSERT_GE(cursors.size(), 1u) << "sweep outran every cadence tick?";
  for (std::size_t i = 1; i < cursors.size(); ++i) {
    EXPECT_GT(cursors[i], cursors[i - 1]);
  }

  // Auto-checkpointing an uncontrolled run is a configuration bug.
  {
    SweepExecutor executor(2);
    analysis::StormRunOptions options;
    options.checkpoint_cadence.units = 10;
    options.persist_checkpoint = [](std::size_t, std::string&&) {};
    EXPECT_THROW((void)analysis::run_storm_experiment_resilient(
                     g, demand, plan, model, protocols, config, executor,
                     options),
                 std::invalid_argument);
  }

  // Resume from the newest stored generation -- the crash-recovery path the
  // supervisor exercises across processes, here in-process -- and finish to
  // the reference bytes.
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->generation, store.generations().back());
  {
    SweepExecutor executor(2);
    RunControl control;
    analysis::StormRunOptions options;
    options.control = &control;
    options.resume_from = latest->blob;
    const analysis::StormRunResult resumed = analysis::run_storm_experiment_resilient(
        g, demand, plan, model, protocols, config, executor, options);
    EXPECT_TRUE(resumed.resumed);
    ASSERT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.completed_scenarios, config.scenarios);
    EXPECT_EQ(resumed.checkpoint, reference);
  }
}

}  // namespace
}  // namespace pr
