// Streaming reducers: flat-memory sweep aggregation for unbounded scenario
// counts.
//
// The classic sweep drivers keep one result row per scenario, which is fine
// for hundreds of enumerated failure sets and fatal for sampled storms at the
// million-scenario scale.  These reducers hold O(1) state per metric instead:
//   * P2Quantile      -- the P^2 algorithm (Jain & Chlamtac, CACM 1985): five
//                        markers tracking one quantile of a stream without
//                        storing it;
//   * TopK            -- a bounded worst-scenario heap with a deterministic
//                        replacement rule;
//   * RunningSummary  -- count / sum / min / max accumulators.
//
// Determinism contract: every reducer is a pure function of its insertion
// SEQUENCE.  Feed them through SweepExecutor::run_ordered -- whose reduce
// hook fires in canonical unit order for every thread count -- and the final
// state is bit-identical at 1, 2 or 64 threads.  Feeding them in completion
// order would not be.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pr::analysis {

/// Complete serialized state of a P2Quantile: restoring it resumes the
/// estimator mid-stream BIT-IDENTICALLY -- every future add() and estimate()
/// behaves exactly as on the uninterrupted instance, including the exact
/// tiny-n path (heights_ doubles as the raw sample buffer while count <= 5).
/// This is what storm-sweep checkpoints persist (analysis/checkpoint.hpp).
struct P2State {
  double quantile = 0.0;
  std::size_t count = 0;
  std::array<double, 5> heights{};
  std::array<double, 5> positions{};
  std::array<double, 5> desired{};
  std::array<double, 5> desired_delta{};
};

/// Single-quantile P^2 estimator.  add() is O(1); estimate() is exact while
/// fewer than 6 samples have been seen (it sorts the marker buffer) and the
/// five-marker parabolic approximation afterwards.  Infinite or NaN samples
/// are rejected (std::invalid_argument): callers decide how to count drops,
/// the estimator only sees finite mass.
class P2Quantile {
 public:
  /// `q` in (0, 1); throws std::invalid_argument otherwise.
  explicit P2Quantile(double q);

  void add(double x);

  [[nodiscard]] double quantile() const noexcept { return q_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Current estimate; 0 when no sample has been seen.  With n <= 5 samples
  /// this is the exact nearest-rank quantile (sorted[ceil(q n) - 1]), so
  /// tiny-n streams agree bit-for-bit with a sorted-sample oracle.
  [[nodiscard]] double estimate() const;

  /// Snapshot of the full estimator state for checkpointing.
  [[nodiscard]] P2State state() const {
    return P2State{q_, count_, heights_, positions_, desired_, desired_delta_};
  }

  /// Rebuild an estimator from a state() snapshot; the result is
  /// indistinguishable from the instance that produced the snapshot.  Throws
  /// std::invalid_argument when the snapshot is structurally invalid (bad
  /// quantile, non-finite markers) -- a corrupted checkpoint must not become
  /// a silently-wrong estimator.
  [[nodiscard]] static P2Quantile from_state(const P2State& state);

 private:
  double q_;
  std::size_t count_ = 0;
  std::array<double, 5> heights_{};         // marker heights q0..q4
  std::array<double, 5> positions_{};       // actual marker positions n_i
  std::array<double, 5> desired_{};         // desired positions n'_i
  std::array<double, 5> desired_delta_{};   // dn'_i per observation
};

/// Convenience bundle: one P2Quantile per requested quantile over the same
/// stream (the storm sweeps track {p50, p90, p99} of two metrics).
class P2QuantileSet {
 public:
  explicit P2QuantileSet(std::vector<double> quantiles);

  void add(double x) {
    for (auto& e : estimators_) e.add(x);
  }

  [[nodiscard]] std::size_t size() const noexcept { return estimators_.size(); }
  [[nodiscard]] const P2Quantile& at(std::size_t i) const { return estimators_.at(i); }
  /// Mutable access for the checkpoint resume path, which assigns each
  /// estimator from its restored state.
  [[nodiscard]] P2Quantile& at(std::size_t i) { return estimators_.at(i); }
  [[nodiscard]] std::vector<double> estimates() const;

 private:
  std::vector<P2Quantile> estimators_;
};

/// Bounded top-K heap over (key, id, payload) entries, keeping the K largest
/// keys seen.  Deterministic rule: an entry displaces the current minimum
/// only when its key is STRICTLY larger, or its key ties and its id is
/// strictly smaller -- so for any insertion sequence the surviving set (and
/// therefore sorted()) is a pure function of the multiset plus feed order,
/// and canonical-order feeding makes it thread-count independent.
template <typename Payload>
class TopK {
 public:
  struct Entry {
    double key = 0.0;
    std::uint64_t id = 0;
    Payload value{};

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  explicit TopK(std::size_t k) : k_(k) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return k_; }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  void add(double key, std::uint64_t id, const Payload& value) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(Entry{key, id, value});
      std::push_heap(heap_.begin(), heap_.end(), HeapOrder{});
      return;
    }
    const Entry& weakest = heap_.front();
    if (key > weakest.key || (key == weakest.key && id < weakest.id)) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapOrder{});
      heap_.back() = Entry{key, id, value};
      std::push_heap(heap_.begin(), heap_.end(), HeapOrder{});
    }
  }

  /// Entries by key descending, ties by id ascending (worst first).
  [[nodiscard]] std::vector<Entry> sorted() const {
    std::vector<Entry> out = heap_;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.key != b.key) return a.key > b.key;
      return a.id < b.id;
    });
    return out;
  }

 private:
  /// Min-heap order on (key asc, id desc): the front is the entry the
  /// deterministic rule evicts first -- smallest key, and among key ties the
  /// LARGEST id, so earlier scenarios win ties.
  struct HeapOrder {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.key != b.key) return a.key > b.key;
      return a.id < b.id;
    }
  };

  std::size_t k_;
  std::vector<Entry> heap_;
};

/// Count / sum / extrema accumulator.  Sums are plain left-to-right doubles:
/// fed in canonical order they are bit-identical to a serial sweep, which is
/// the whole point.
struct RunningSummary {
  std::size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double x) noexcept {
    if (count == 0) {
      min = max = x;
    } else {
      if (x < min) min = x;
      if (x > max) max = x;
    }
    sum += x;
    ++count;
  }

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  friend bool operator==(const RunningSummary&, const RunningSummary&) = default;
};

}  // namespace pr::analysis
