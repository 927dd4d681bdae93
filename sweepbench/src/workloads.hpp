// Workload definitions for the sweep benchmark: what each named workload
// builds during set-up, which public driver it calls, and how its result is
// fingerprinted and checked against the library's full-re-route oracle.
//
// Every workload prices Packet Re-cycling, Loop-Free Alternates and IGP
// reconvergence on degree-gravity demand of 1M pps, against a uniform
// capacity plan sized so the busiest pristine shortest-path interface runs
// at 0.6 -- the rules every sweep bench of the repository uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/storm.hpp"
#include "analysis/traffic.hpp"
#include "graph/graph.hpp"
#include "net/storm_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"

namespace sweepbench {

using namespace pr;

enum class Driver : std::uint8_t {
  kStorm,    ///< analysis::run_storm_experiment
  kTraffic,  ///< analysis::run_traffic_experiment, incremental mode
};

/// Sweep workers of every workload.  The units are short (~2-4 ms of CPU),
/// and on a shared host 2-thread sweeps of short units drift more between
/// sets of runs than serial ones.
inline constexpr std::size_t kThreads = 1;

struct WorkloadSpec {
  std::string_view name;
  Driver driver = Driver::kStorm;
  /// Whether --seed changes the inputs.  Only the storm draws from it; the
  /// ISP workload sweeps one fixed sample of dual-link failures whatever the
  /// seed, because the cost and peak memory of an ISP list hinge on a few
  /// heavy scenarios (PR looping to TTL) whose presence a seeded draw would
  /// vary.
  bool seeded = false;
  /// The seed the recorded result digests belong to; for an unseeded
  /// workload, the root of its fixed sample.
  std::uint64_t default_seed = 0;
  /// 0 = GEANT; otherwise the hierarchical ISP size handed to
  /// graph::sized_isp_params, generated from Rng(0xB0B0 + size) -- the
  /// instance bench_backbone sweeps.
  std::size_t isp_nodes = 0;
  /// Scenarios per driver call (the storm's sample count, the traffic
  /// driver's list length).
  std::size_t scenarios = 0;
  /// Set-ups per run; setup_s is their median.
  std::size_t setup_reps = 1;
  /// Leading scenarios the full-re-route oracle re-prices in every run.
  std::size_t oracle_prefix = 0;
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Everything set-up builds and a driver call reads.  Heap-held and never
/// moved: the suite, storm model and networks keep pointers into it.
struct Instance {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  graph::Graph graph;
  std::unique_ptr<analysis::ProtocolSuite> suite;
  std::vector<analysis::NamedFactory> protocols;
  traffic::TrafficMatrix demand;
  traffic::CapacityPlan plan;
  // Storm driver: the scenario source.
  std::unique_ptr<net::SrlgCatalog> catalog;
  std::unique_ptr<net::IndependentOutages> model;
  analysis::StormSweepConfig storm;
  // Traffic driver: the scenario list.
  std::vector<graph::EdgeSet> scenarios;
  std::unique_ptr<sim::SweepExecutor> executor;

  [[nodiscard]] std::size_t scenario_count() const noexcept {
    return spec->driver == Driver::kStorm ? storm.scenarios : scenarios.size();
  }
};

/// Builds the workload at `seed` with `scenarios` scenarios per driver call:
/// topology, ProtocolSuite, demand, capacity plan, scenario source/list and
/// executor, in that order.
[[nodiscard]] std::unique_ptr<Instance> set_up(const WorkloadSpec& spec,
                                               std::uint64_t seed,
                                               std::size_t scenarios);

/// The demand + capacity-plan step of set_up, exposed for the traced run.
void plan_demand(Instance& inst);

/// The scenario-source step of set_up, exposed for the traced run.
void build_scenarios(Instance& inst, std::size_t scenarios);

using DriverResult =
    std::variant<analysis::StormExperimentResult, analysis::TrafficExperimentResult>;

/// Per protocol, the metric rows of a traffic result's leading scenarios.
using PrefixRows = std::vector<std::vector<traffic::CongestionMetrics>>;

/// One call of the workload's public driver on `executor`.
[[nodiscard]] DriverResult call_driver(const Instance& inst, sim::SweepExecutor& executor);

/// Every field of a driver result as a sealed analysis::CheckpointWriter
/// blob (doubles by bit pattern), so two results encode equal only when
/// they are bit-identical.
[[nodiscard]] std::string encode(const analysis::StormExperimentResult& r);
[[nodiscard]] std::string encode(const analysis::TrafficExperimentResult& r);

/// analysis::checkpoint_digest of encode(r).
[[nodiscard]] std::uint64_t digest(const DriverResult& r);

/// The rows of the first `count` scenarios of a traffic result (empty for
/// a storm result, whose reducers keep no rows).
[[nodiscard]] PrefixRows prefix_rows(const DriverResult& r, std::size_t count);

/// Re-prices the first spec.oracle_prefix scenarios through
/// TrafficSweepMode::kFullReroute and demands bit identity: for the traffic
/// driver against `rows` from a timed call, for the storm driver against a
/// storm-driver call over the same prefix (its sampled failure sets).
/// Returns an empty string on success, else what differed.
[[nodiscard]] std::string check_oracle_prefix(const Instance& inst,
                                              sim::SweepExecutor& executor,
                                              const PrefixRows& rows);

}  // namespace sweepbench
