// Repair-coverage analysis (ablation A2): what fraction of failure scenarios
// does each scheme actually survive?
//
// For every scenario and every ordered affected pair we classify the outcome:
//   delivered          -- the packet reached its destination;
//   dropped-reachable  -- it was lost although a path still existed (a
//                         protocol coverage gap: LFA without an alternate,
//                         the 1-bit PR variant looping until TTL, ...);
//   dropped-partition  -- no path existed; no scheme can deliver.
// PR with DD bits must show zero dropped-reachable -- that is the paper's
// central guarantee -- and the property suites enforce it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/stretch.hpp"

namespace pr::analysis {

struct ProtocolCoverage {
  std::string name;
  std::size_t delivered = 0;
  std::size_t dropped_reachable = 0;
  std::size_t dropped_partitioned = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return delivered + dropped_reachable + dropped_partitioned;
  }
  /// Fraction of *recoverable* packets delivered (partitioned pairs excluded).
  ///
  /// Pinned corner semantics (regression-tested, always NaN-free): the
  /// vacuous 1.0 is reserved for genuinely empty sweeps -- nothing routed at
  /// all.  A sweep that routed traffic but had zero recoverable packets
  /// (every drop was a partition) reports 0.0: it delivered nothing, and
  /// advertising 100% coverage for a blackout would be misleading even when
  /// no scheme could have done better.
  [[nodiscard]] double coverage() const noexcept {
    const std::size_t recoverable = delivered + dropped_reachable;
    if (recoverable > 0) {
      return static_cast<double>(delivered) / static_cast<double>(recoverable);
    }
    return total() == 0 ? 1.0 : 0.0;
  }

  /// Accumulates another shard's counts (same protocol); counters are
  /// order-insensitive, but parallel sweeps still merge in canonical order
  /// (the executor's ordered reduce) to honour its determinism contract.
  void merge(const ProtocolCoverage& other) noexcept {
    delivered += other.delivered;
    dropped_reachable += other.dropped_reachable;
    dropped_partitioned += other.dropped_partitioned;
  }
};

struct CoverageResult {
  std::vector<ProtocolCoverage> protocols;
  std::size_t scenarios = 0;
};

/// Routes every affected ordered pair of every scenario under every protocol
/// and classifies the outcomes.  Unlike the stretch experiment, scenarios may
/// disconnect the graph.  This is the serial reference path; the executor
/// overload below is bit-identical to it.
[[nodiscard]] CoverageResult run_coverage_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols);

/// Parallel sharded variant: scenarios are work units on `executor`, each
/// classified with the worker's reusable batch buffers into a ring slot whose
/// ProtocolCoverage counts the ordered reduce merges in canonical scenario
/// order.  Counts are identical to the serial overload for every thread count.
[[nodiscard]] CoverageResult run_coverage_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor);

}  // namespace pr::analysis
