// Path-length stretch and repair coverage over the packets a failure hits.
//
// "We define the stretch of a path as the ratio between the total path cost
//  while cycle following and the path cost of the normal shortest path."
// The Figure 2 curves plot the complementary CDF P(Stretch > x | path),
// conditioned on paths affected by the failure scenario (unaffected pairs
// have stretch 1 under every scheme and carry no information).  Ablation A2
// asks of the same packets which were delivered, which were lost although a
// path still existed, and which were cut off; one sweep answers both.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "net/forwarding.hpp"
#include "route/routing_db.hpp"
#include "route/scenario_cache.hpp"

namespace pr::sim {
class SweepExecutor;
}  // namespace pr::sim

namespace pr::analysis {

/// Empirical complementary CDF of `samples` evaluated at each x in `xs`:
/// P(sample > x).  Infinite samples (dropped packets) inflate every point.
[[nodiscard]] std::vector<double> ccdf(std::span<const double> samples,
                                       std::span<const double> xs);

/// True when the (pristine) shortest path from `s` to `t` recorded in
/// `routes` traverses at least one edge of `failures`.
[[nodiscard]] bool path_affected(const route::RoutingDb& routes, graph::NodeId s,
                                 graph::NodeId t, const graph::EdgeSet& failures);

/// Builds a fresh protocol instance for a scenario; the Network already has
/// the scenario's failures installed when the factory runs.
using ProtocolFactory =
    std::function<std::unique_ptr<net::ForwardingProtocol>(const net::Network&)>;

/// Cache-aware variant: sweep drivers own a ScenarioRoutingCache (one per
/// worker) and pass it here so protocols that reconverge can borrow
/// delta-repaired tables instead of building fresh RoutingDbs per scenario.
using CachedProtocolFactory = std::function<std::unique_ptr<net::ForwardingProtocol>(
    const net::Network&, route::ScenarioRoutingCache&)>;

struct NamedFactory {
  std::string name;
  ProtocolFactory make;
  /// Optional: preferred by drivers that own a cache.  When empty, `make`
  /// runs instead, so factories that never rebuild tables need not set it.
  CachedProtocolFactory make_cached{};
};

/// The one instantiation rule every sweep driver uses: the cache-aware maker
/// when the factory provides one, the plain maker otherwise.  Tables served
/// by the cache are bit-identical to from-scratch builds, so both paths
/// produce identical sweep results.
[[nodiscard]] inline std::unique_ptr<net::ForwardingProtocol> make_protocol(
    const NamedFactory& factory, const net::Network& net,
    route::ScenarioRoutingCache& cache) {
  return factory.make_cached ? factory.make_cached(net, cache) : factory.make(net);
}

/// Aggregate outcome of one protocol across all scenarios and affected pairs.
///
/// Every packet falls in exactly one class:
///   delivered           -- it reached its destination;
///   dropped_reachable   -- it was lost although a path still existed (a
///                          protocol coverage gap: LFA without an alternate,
///                          the 1-bit PR variant looping until TTL, ...);
///   dropped_partitioned -- no path existed; no scheme can deliver.
/// PR with DD bits drops no reachable packet on a genus-0 embedding: the
/// tests assert zero on the planar bundled topologies, and bench_coverage
/// fails if it sees one.  On an embedding with handles it can drop some:
/// pr_property_test's NonPlanarLivelock pins one such loop, integration_test's
/// StretchExperimentMatchesManualComputation requires drops on Teleglobe
/// (genus 1), and ROADMAP.md's face-dual item describes which failure sets
/// cause them.
struct ProtocolStretch {
  std::string name;
  /// One entry per (scenario, affected ordered pair): cost ratio, or +inf for
  /// packets the protocol failed to deliver.
  std::vector<double> stretches;
  std::size_t delivered = 0;
  std::size_t dropped_reachable = 0;
  std::size_t dropped_partitioned = 0;

  [[nodiscard]] std::size_t dropped() const noexcept {
    return dropped_reachable + dropped_partitioned;
  }
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

  [[nodiscard]] double max_finite_stretch() const;
  [[nodiscard]] double mean_finite_stretch() const;

  friend bool operator==(const ProtocolStretch&, const ProtocolStretch&) = default;
};

struct StretchExperimentResult {
  std::vector<ProtocolStretch> protocols;
  std::size_t scenarios = 0;
  std::size_t affected_pairs = 0;  ///< summed over scenarios

  friend bool operator==(const StretchExperimentResult&,
                         const StretchExperimentResult&) = default;
};

/// Runs every protocol over every failure scenario and every affected ordered
/// source/destination pair, measuring the cost of the route each packet
/// actually travelled against the pristine shortest-path cost and classifying
/// its outcome.  Scenarios may disconnect the graph.  This is the serial
/// reference path; the executor overload below is bit-identical to it.
[[nodiscard]] StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols);

/// Parallel sharded variant: scenarios are work units on `executor`, each
/// routed with the worker's reusable batch buffers into a ring slot that the
/// ordered reduce appends in canonical scenario order.  Results (counts,
/// stretch samples and their order) are bit-identical to the serial overload
/// for every thread count.
[[nodiscard]] StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor);

}  // namespace pr::analysis
