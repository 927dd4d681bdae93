#include "analysis/checkpoint_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "analysis/checkpoint.hpp"
#include "sim/run_control.hpp"
#include "util/atomic_file.hpp"

namespace pr::analysis {
namespace fs = std::filesystem;

namespace {

constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kSuffix = ".prckpt";
constexpr std::string_view kQuarantineDir = "quarantine";

/// Parses "ckpt-<digits>.prckpt" -> generation; nullopt for anything else
/// (temps, quarantine dir, stray files), so foreign files are simply ignored.
std::optional<std::uint64_t> parse_generation(std::string_view name) {
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (name.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return std::nullopt;
  const std::string digits(
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
  std::size_t value = 0;
  if (!sim::parse_count_arg(digits.c_str(), std::numeric_limits<std::size_t>::max(),
                            value)) {
    return std::nullopt;
  }
  return value;
}

[[noreturn]] void fail(const std::string& what, const std::error_code& ec) {
  throw CheckpointStoreError("checkpoint store: " + what + ": " + ec.message());
}

}  // namespace

std::string CheckpointStore::generation_filename(std::uint64_t generation) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%08llu",
                static_cast<unsigned long long>(generation));
  return std::string(kPrefix) + digits + std::string(kSuffix);
}

std::string CheckpointStore::generation_path(std::uint64_t generation) const {
  return directory_ + "/" + generation_filename(generation);
}

CheckpointStore::CheckpointStore(std::string directory, CheckpointStoreOptions options)
    : directory_(std::move(directory)), options_(options) {
  if (options_.keep_generations == 0) {
    throw CheckpointStoreError(
        "checkpoint store: keep_generations must be >= 1 (a store that keeps "
        "nothing cannot resume anything)");
  }
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) fail("cannot create directory '" + directory_ + "'", ec);
  // Continue numbering where a previous process stopped: monotonic
  // generations are what let the supervisor (and humans) order the story of
  // a crash-looping sweep across incarnations.
  for (const std::uint64_t gen : generations()) latest_ = std::max(latest_, gen);
}

std::vector<std::uint64_t> CheckpointStore::generations(const std::string& directory) {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) fail("cannot list directory '" + directory + "'", ec);
  for (const fs::directory_entry& entry : it) {
    if (const auto gen = parse_generation(entry.path().filename().string())) {
      out.push_back(*gen);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t CheckpointStore::persist(std::string_view blob) {
  const std::uint64_t generation = latest_ + 1;
  try {
    util::atomic_write_file(generation_path(generation), blob);
  } catch (const util::AtomicWriteError& e) {
    throw CheckpointStoreError(std::string("checkpoint store: persist of generation ") +
                               std::to_string(generation) + " failed: " + e.what());
  }
  latest_ = generation;
  rotate();
  return generation;
}

void CheckpointStore::rotate() {
  std::vector<std::uint64_t> on_disk = generations();
  if (on_disk.size() <= options_.keep_generations) return;
  const std::size_t drop = on_disk.size() - options_.keep_generations;
  for (std::size_t i = 0; i < drop; ++i) {
    std::error_code ec;
    fs::remove(generation_path(on_disk[i]), ec);
    // A rotation failure is not worth failing a persist over: the new
    // generation IS durable, the directory is just larger than asked.
    (void)ec;
  }
}

void CheckpointStore::quarantine(std::uint64_t generation, const std::string& reason) {
  const std::string quarantine_dir = directory_ + "/" + std::string(kQuarantineDir);
  std::error_code ec;
  fs::create_directories(quarantine_dir, ec);
  if (!ec) {
    fs::rename(generation_path(generation),
               quarantine_dir + "/" + generation_filename(generation), ec);
  }
  if (ec) {
    // Could not move the evidence aside (read-only fs?): delete nothing,
    // report nothing fatal -- the fallback scan already skips this
    // generation; it will just be re-diagnosed on the next load.
    return;
  }
  ++quarantined_;
  std::ofstream note(quarantine_dir + "/" + generation_filename(generation) + ".reason");
  note << reason << "\n";
}

std::optional<StoredCheckpoint> CheckpointStore::load_latest() {
  std::vector<std::uint64_t> on_disk = generations();
  for (auto it = on_disk.rbegin(); it != on_disk.rend(); ++it) {
    const std::uint64_t generation = *it;
    std::string blob;
    {
      std::ifstream in(generation_path(generation), std::ios::binary);
      if (!in) {
        quarantine(generation, "unreadable generation file");
        continue;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (!in.good() && !in.eof()) {
        quarantine(generation, "read error mid-file");
        continue;
      }
      blob = std::move(buffer).str();
    }
    try {
      // Structural validation only: magic + checksum + well-formed framing.
      // Constructing the reader checks all three up front.
      CheckpointReader reader(blob);
      (void)reader;
    } catch (const CheckpointError& e) {
      quarantine(generation, e.what());
      continue;
    }
    latest_ = std::max(latest_, generation);
    return StoredCheckpoint{generation, std::move(blob)};
  }
  return std::nullopt;
}

}  // namespace pr::analysis
