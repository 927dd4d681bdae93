// Flow->dart incidence: the pristine-routing index behind incremental
// traffic sweeps.
//
// A congestion-under-failure sweep re-prices the same demand matrix against
// hundreds of failure scenarios, yet in a single-link sweep the overwhelming
// majority of flows never touch the failed edge: their scenario path IS their
// pristine path, and they contribute exactly their pristine load.  This index
// captures one pristine routing pass of a protocol over a demand work-list in
// CSR form, twice over:
//   * per flow  -- the dart sequence its pristine path crossed (the replay
//                  rows that seed every scenario's LoadMap);
//   * per dart  -- the sorted set of flows whose pristine path crosses it
//                  (the reverse index a failure set probes to find the flows
//                  it actually affects).
// A scenario then re-routes only the affected flows and REPLAYS the pristine
// rows for everyone else, interleaved in canonical flow order -- the exact
// floating-point addition sequence a full re-route performs, which is what
// keeps incremental results bit-identical to the full oracle (see
// analysis/traffic.hpp).
//
// Validity: the index assumes protocols are failure-local -- a flow whose
// pristine path avoids every failed edge must behave identically under the
// scenario.  That holds for every analysis::ProtocolSuite factory: PR, LFA,
// FCP and static SPF forward on pristine tables and only deviate AT a failed
// link, and reconvergence's deterministic destination-based SPF provably
// keeps every next-hop on a surviving pristine path unchanged (removing
// edges cannot shorten surviving paths; see graph::SpfWorkspace::repair).
// The debug-mode cross-check in analysis::run_traffic_experiment enforces it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/failure_model.hpp"
#include "sim/forwarding_engine.hpp"
#include "traffic/load_map.hpp"

namespace pr::traffic {

class FlowIncidenceIndex {
 public:
  FlowIncidenceIndex() = default;

  /// Routes every flow of `flows` through the pristine `net` under
  /// `protocol` (same order and hop semantics as the sweep's route_batch)
  /// and records the per-flow dart paths, per-dart flow incidence, per-flow
  /// delivery outcomes and path costs, and the demand-weighted pristine
  /// LoadMap.  `net` must carry no failures and `demands` one rate per flow
  /// (throws std::invalid_argument otherwise).  Rebuilding reuses storage.
  void build(const net::Network& net, net::ForwardingProtocol& protocol,
             std::span<const sim::FlowSpec> flows, std::span<const double> demands);

  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] std::size_t flow_count() const noexcept { return delivered_.size(); }
  [[nodiscard]] std::size_t dart_count() const noexcept {
    return dart_offsets_.empty() ? 0 : dart_offsets_.size() - 1;
  }

  /// Pristine path of flow `flow` as the dart sequence it crossed, in hop
  /// order (the partial path for a flow dropped in the pristine network).
  [[nodiscard]] std::span<const graph::DartId> flow_darts(std::size_t flow) const {
    return {path_darts_.data() + path_offsets_.at(flow),
            path_offsets_.at(flow + 1) - path_offsets_.at(flow)};
  }

  [[nodiscard]] bool pristine_delivered(std::size_t flow) const {
    return delivered_.at(flow) != 0;
  }

  /// Cost of flow `flow`'s pristine path (what stretch divides by).
  [[nodiscard]] double pristine_cost(std::size_t flow) const { return costs_.at(flow); }

  /// Flows whose pristine path crosses dart `d`, sorted ascending, deduped.
  [[nodiscard]] std::span<const std::uint32_t> dart_flows(graph::DartId d) const {
    return {dart_flows_.data() + dart_offsets_.at(d),
            dart_offsets_.at(d + 1) - dart_offsets_.at(d)};
  }

  /// The demand-weighted per-dart load of the pristine routing pass (what a
  /// zero-failure scenario accumulates).
  [[nodiscard]] const LoadMap& pristine_load() const noexcept { return pristine_load_; }

  /// Collects into `out` the flows whose pristine path crosses any edge of
  /// `failures` (both darts), sorted ascending and deduped.  `mark` is
  /// caller-owned scratch, resized to flow_count() and left with mark[f] != 0
  /// exactly for the collected flows -- sweep cells reuse it to test
  /// affectedness per flow without a second lookup.
  void affected_flows(const graph::EdgeSet& failures, std::vector<std::uint8_t>& mark,
                      std::vector<std::uint32_t>& out) const;

 private:
  bool built_ = false;
  // Per-flow pristine paths, CSR over darts crossed.
  std::vector<std::size_t> path_offsets_;  ///< flow_count()+1 fenceposts
  std::vector<graph::DartId> path_darts_;
  std::vector<std::uint8_t> delivered_;  ///< pristine delivery per flow
  std::vector<double> costs_;            ///< pristine path cost per flow
  // Per-dart incidence, CSR over flow ids (sorted, deduped per dart).
  std::vector<std::size_t> dart_offsets_;  ///< dart count + 1 fenceposts
  std::vector<std::uint32_t> dart_flows_;
  LoadMap pristine_load_;
};

/// Per-risk-group affected-flow unions: the SRLG-grained reverse index the
/// storm sweeps probe.  A storm scenario arrives as a *group* list, and
/// probing FlowIncidenceIndex edge by edge costs O(failed edges x incident
/// flows) -- wasteful when geographic bundles put dozens of edges in one
/// group.  GroupIncidence precomputes, per catalog group, the sorted union of
/// flows whose pristine path crosses any member edge, so the per-scenario
/// probe is O(failed groups + affected flows).
class GroupIncidence {
 public:
  GroupIncidence() = default;

  /// Builds the group->flows CSR from a built `index` over `catalog`'s graph
  /// (throws std::invalid_argument if `index` is not built or its dart count
  /// disagrees with the catalog's graph).  Rebuilding reuses storage.
  void build(const FlowIncidenceIndex& index, const net::SrlgCatalog& catalog);

  [[nodiscard]] bool built() const noexcept { return built_; }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return group_offsets_.empty() ? 0 : group_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t flow_count() const noexcept { return flow_count_; }

  /// Flows whose pristine path crosses any member edge of `group`, sorted
  /// ascending, deduped.
  [[nodiscard]] std::span<const std::uint32_t> group_flows(std::size_t group) const {
    return {group_flows_.data() + group_offsets_.at(group),
            group_offsets_.at(group + 1) - group_offsets_.at(group)};
  }

  /// Union over `groups`, same contract as FlowIncidenceIndex::affected_flows:
  /// `out` sorted ascending and deduped, `mark` resized to flow_count() with
  /// mark[f] != 0 exactly for collected flows.
  void affected_flows(std::span<const std::size_t> groups,
                      std::vector<std::uint8_t>& mark,
                      std::vector<std::uint32_t>& out) const;

 private:
  bool built_ = false;
  std::size_t flow_count_ = 0;
  // Per-group incidence, CSR over flow ids (sorted, deduped per group).
  std::vector<std::size_t> group_offsets_;  ///< group_count()+1 fenceposts
  std::vector<std::uint32_t> group_flows_;
};

/// Per-worker scratch for incremental sweep cells (affected-flow marks and
/// the compacted re-route list).  Lives in sim::WorkerContext and in each
/// serial driver so the per-scenario hot loop reuses capacity.
struct IncidenceScratch {
  std::vector<std::uint8_t> affected_mark;  ///< per-flow affectedness flags
  std::vector<std::uint32_t> affected;      ///< affected flow ids, ascending
  std::vector<sim::FlowSpec> flows;         ///< compacted specs for re-routing
};

}  // namespace pr::traffic
