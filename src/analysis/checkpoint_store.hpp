// Durable, generation-numbered store for checkpoint blobs.
//
// analysis/checkpoint.hpp made a sweep's reducer state an exact, checksummed
// byte string; this layer makes that string survive the PROCESS.  A store is
// a directory of monotonically numbered generation files
//
//   <dir>/ckpt-00000001.prckpt
//   <dir>/ckpt-00000002.prckpt        (newest = highest number)
//   <dir>/quarantine/ckpt-....prckpt  (corrupt generations, moved aside)
//
// written with the crash-consistent temp + fsync + rename idiom
// (util/atomic_file.hpp), so a generation file on disk is always a COMPLETE
// sealed blob: a crash mid-persist leaves the previous generations untouched
// and at worst an ignored dot-temp.  Rotation keeps the newest
// `keep_generations` files so an auto-checkpointing sweep never grows the
// directory without bound, and keeping more than one generation is itself a
// robustness feature: if the newest file fails validation (truncated by a
// dying filesystem, bit-rotted, half a disk), load_latest() QUARANTINES it --
// moves it aside with a reason suffix, never deletes evidence -- and falls
// back to the next older good one.  Resuming from an older generation is
// always correct, merely slower: checkpoints are canonical prefixes, so the
// sweep re-runs the tail deterministically (the crash-only design of
// conf_hotnets_LorLR10 applied to the analysis pipeline itself).
//
// Concurrency: one writer process per store directory at a time (the
// supervisor harness enforces this by construction -- it restarts the child
// only after waitpid).  load_latest() tolerates a concurrent writer appending
// NEW generations; it never touches files it did not fail to read.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pr::analysis {

/// Filesystem-level store failure (create/list/rename errors).  Distinct from
/// CheckpointError, which reports what is INSIDE a blob.
class CheckpointStoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CheckpointStoreOptions {
  /// Generations kept on disk; persisting past the bound deletes the oldest.
  /// Must be >= 1 (the constructor throws otherwise); >= 2 is what makes the
  /// corruption fallback non-vacuous.
  std::size_t keep_generations = 4;
};

/// A successfully loaded generation.
struct StoredCheckpoint {
  std::uint64_t generation = 0;
  std::string blob;
};

class CheckpointStore {
 public:
  /// Opens (creating if needed) the store at `directory` and scans existing
  /// generation files so numbering continues monotonically across processes.
  explicit CheckpointStore(std::string directory, CheckpointStoreOptions options = {});

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Durably persists `blob` as the next generation (atomic replace + fsync)
  /// and rotates generations beyond the keep bound.  Returns the new
  /// generation number.  Throws CheckpointStoreError on I/O failure -- the
  /// existing generations are untouched in that case.
  std::uint64_t persist(std::string_view blob);

  /// Loads the newest generation whose file is a structurally valid blob
  /// (magic + checksum, via CheckpointReader).  A generation that fails --
  /// unreadable, truncated, checksum mismatch -- is moved to quarantine/ and
  /// the scan falls back to the next older one.  Returns nullopt when no good
  /// generation exists.  Schema-level validation (kind, version, config echo)
  /// stays with the caller: a structurally valid blob for the WRONG
  /// experiment is a caller error, not store corruption.
  [[nodiscard]] std::optional<StoredCheckpoint> load_latest();

  /// Generation numbers currently on disk, ascending (fresh directory scan).
  [[nodiscard]] std::vector<std::uint64_t> generations() const {
    return generations(directory_);
  }

  /// The same scan of any directory, for readers that must not create the
  /// store (the supervisor's heartbeat); throws CheckpointStoreError when the
  /// directory cannot be listed.
  [[nodiscard]] static std::vector<std::uint64_t> generations(const std::string& directory);

  /// The newest generation number ever observed or written by this instance
  /// (0 = none).
  [[nodiscard]] std::uint64_t latest_generation() const noexcept { return latest_; }

  /// Generations this instance moved to quarantine/.
  [[nodiscard]] std::size_t quarantined() const noexcept { return quarantined_; }

  [[nodiscard]] const std::string& directory() const noexcept { return directory_; }
  [[nodiscard]] const CheckpointStoreOptions& options() const noexcept {
    return options_;
  }

  /// "ckpt-00000042.prckpt" -- zero-padded so lexical file order matches
  /// numeric generation order for the common case (parsing stays numeric).
  [[nodiscard]] static std::string generation_filename(std::uint64_t generation);

 private:
  [[nodiscard]] std::string generation_path(std::uint64_t generation) const;
  void quarantine(std::uint64_t generation, const std::string& reason);
  void rotate();

  std::string directory_;
  CheckpointStoreOptions options_;
  std::uint64_t latest_ = 0;
  std::size_t quarantined_ = 0;
};

}  // namespace pr::analysis
