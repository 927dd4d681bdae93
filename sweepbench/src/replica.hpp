// The traced run's replica of the sweep drivers.
//
// replay() re-runs one driver call of a workload -- same scenarios, same
// executor thread count -- through a benchmark-side copy of the driver's
// per-scenario cell (analysis/storm.cpp's evaluate_storm_cell and
// analysis/traffic.cpp's incremental cell), built only from public calls:
// StormModel::sample, Network::fail_link, graph::connected_components(_into),
// GroupIncidence / FlowIncidenceIndex::affected_flows,
// ScenarioRoutingCache::tables, analysis::make_protocol, sim::route_batch,
// the LoadMap replay, traffic::apply_utilization and the reducers.  Every
// call into a layer gets a span.  The copy reduces exactly as the driver
// does, so its result digest must equal the driver's bit for bit -- the
// proof that the spans timed the work the driver does.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace sweepbench {

/// Work counts the replica observes while it routes and replays.  They are
/// taken from the re-routed flows after a cell's spans close, so no span
/// times them.
struct ReplicaCounts {
  std::uint64_t forward_hops = 0;   ///< hops of re-routed flows
  std::uint64_t stranded_hops = 0;  ///< ... whose destination is partitioned off
  std::uint64_t ttl_drops = 0;
  std::uint64_t max_batch_hops = 0;  ///< largest single route_batch call
  std::uint64_t replayed_darts = 0;  ///< LoadMap additions in the replay
  std::uint64_t affected_flows = 0;  ///< summed over probes
  std::uint64_t probed_flows = 0;    ///< flow universe summed over probes

  void merge(const ReplicaCounts& other);
};

struct ReplicaRun {
  std::uint64_t digest = 0;
  double wall_ms = 0.0;  ///< the replayed driver call, end to end
  /// Lane 0 is the calling thread; lane 1 + w is sweep worker w.
  std::vector<SpanLog> logs;
  ReplicaCounts counts;
  /// CheckpointWriter encoding of the result state, after the timed call
  /// (traffic driver only; the storm driver seals its own checkpoints).
  double checkpoint_ms = 0.0;
  std::size_t checkpoint_bytes = 0;
};

/// Replays one driver call of `inst` on `executor` with spans.
[[nodiscard]] ReplicaRun replay(const Instance& inst, sim::SweepExecutor& executor);

}  // namespace sweepbench
