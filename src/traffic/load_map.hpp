// Per-interface offered load, accumulated by demand-weighted sweeps.
//
// A LoadMap holds one packets-per-second accumulator per dart (per interface
// direction, matching net::QueueModel's queue-per-dart view).  The batched
// forwarding engine adds a flow's demand to every dart the flow traverses --
// including the partial path of a dropped flow, since those packets occupy
// real transmitters before being lost.  Maps are plain flat vectors: reset()
// keeps capacity so the sweep hot loop never allocates, and merge() is an
// element-wise sum whose canonical call order (scenario order, enforced by
// the sweep drivers) makes parallel reductions bit-identical to serial ones.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace pr::traffic {

class LoadMap {
 public:
  LoadMap() = default;
  explicit LoadMap(std::size_t dart_count) : pps_(dart_count, 0.0) {}

  /// Sizes for `dart_count` darts and zeroes every accumulator; existing
  /// capacity is reused, so resetting per scenario is allocation-free once
  /// the first scenario warmed the buffer.
  void reset(std::size_t dart_count) {
    pps_.assign(dart_count, 0.0);
  }

  void add(graph::DartId d, double pps) { pps_.at(d) += pps; }

  [[nodiscard]] double load(graph::DartId d) const { return pps_.at(d); }
  [[nodiscard]] std::size_t dart_count() const noexcept { return pps_.size(); }
  [[nodiscard]] std::span<const double> darts() const noexcept { return pps_; }

  /// Sum of all per-dart loads (the demand-weighted link-hop volume).
  [[nodiscard]] double total_pps() const noexcept {
    double sum = 0.0;
    for (double v : pps_) sum += v;
    return sum;
  }

  /// Element-wise accumulation; both maps must cover the same dart count
  /// (throws std::invalid_argument otherwise).  Callers merging sweep shards
  /// must do so in canonical scenario order -- floating-point sums are order-
  /// sensitive, and the executor's determinism contract depends on it.
  void merge(const LoadMap& other);

  friend bool operator==(const LoadMap&, const LoadMap&) = default;

 private:
  std::vector<double> pps_;
};

/// Element-wise comparison report between two maps: how many darts differ
/// bit-for-bit and where the largest absolute delta sits.  Tests use it to
/// assert exact equality with a useful failure message, and the debug-mode
/// cross-check in analysis::run_traffic_experiment uses it to pinpoint any
/// divergence between the incremental and full-re-route sweep paths.
struct LoadMapDiff {
  bool size_mismatch = false;  ///< dart counts differ; no darts compared
  std::size_t darts_compared = 0;
  std::size_t differing = 0;  ///< darts whose loads are not bit-equal
  /// Dart with the largest |a - b| (kInvalidDart when none differ).
  graph::DartId worst_dart = graph::kInvalidDart;
  double max_abs_delta = 0.0;

  [[nodiscard]] bool identical() const noexcept {
    return !size_mismatch && differing == 0;
  }
};

/// Compares two maps element-wise.  Size mismatch is reported, not thrown,
/// so the helper is usable in failure paths.
[[nodiscard]] LoadMapDiff diff(const LoadMap& a, const LoadMap& b);

/// Mergeable sweep reduction: the summed load map plus the scenario count it
/// covers.  The traffic sweep drivers keep one per protocol and add() each
/// scenario's map in canonical scenario order -- the serial loop directly,
/// the executor path from its ordered reduce -- so both perform the same
/// element-wise additions in the same sequence, which is what makes the
/// summed map bit-identical at every thread count.  merge() folds two
/// reductions the same way.
struct LoadMapReduction {
  LoadMap load;
  std::size_t scenarios = 0;

  /// Folds one scenario's accumulated map in (adopts the size on first use).
  void add(const LoadMap& scenario_load) {
    if (load.dart_count() == 0) {
      load = scenario_load;
    } else {
      load.merge(scenario_load);
    }
    ++scenarios;
  }

  void merge(const LoadMapReduction& other) {
    if (load.dart_count() == 0) {
      load = other.load;
    } else if (other.load.dart_count() != 0) {
      load.merge(other.load);
    }
    scenarios += other.scenarios;
  }

  friend bool operator==(const LoadMapReduction&, const LoadMapReduction&) = default;
};

}  // namespace pr::traffic
