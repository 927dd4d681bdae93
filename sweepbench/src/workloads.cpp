#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analysis/checkpoint.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/failure_model.hpp"
#include "topo/topologies.hpp"
#include "traffic/load_map.hpp"

namespace sweepbench {

namespace {

constexpr double kTotalDemandPps = 1e6;
constexpr double kBaselineUtilization = 0.6;
constexpr double kOutageProbability = 0.02;  // tools/storm_sweep's storm
constexpr std::size_t kSrlgRadius = 2;
/// The ISP instances are bench_backbone's: generator seed 0xB0B0 + size.
constexpr std::uint64_t kIspGeneratorSeed = 0xB0B0;

constexpr WorkloadSpec kWorkloads[] = {
    {.name = "storm-geant",
     .driver = Driver::kStorm,
     .seeded = true,
     .default_seed = 0x5708,
     // Per-scenario cost is heavy-tailed (partitions strand traffic), so a
     // call's work varies with the seed; 6000 draws keep that variation
     // across seeds to a few percent.
     .scenarios = 6000,
     .setup_reps = 21,
     .oracle_prefix = 200},
    {.name = "traffic-isp256-dual",
     .driver = Driver::kTraffic,
     .default_seed = 0xB0B0 + 256,
     .isp_nodes = 256,
     .scenarios = 1000,
     .setup_reps = 5,
     .oracle_prefix = 8},
};

void put_summary(analysis::CheckpointWriter& w, const analysis::RunningSummary& s) {
  w.u64(s.count);
  w.f64(s.sum);
  w.f64(s.min);
  w.f64(s.max);
}

void put_doubles(analysis::CheckpointWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (const double d : v) w.f64(d);
}

/// The benches' sizing rule: the busiest pristine shortest-path interface
/// runs at kBaselineUtilization.
traffic::CapacityPlan size_plan(const graph::Graph& g, const analysis::ProtocolSuite& suite,
                                const traffic::TrafficMatrix& demand) {
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);
  const net::Network network(g);
  const auto spf = suite.spf().make(network);
  traffic::LoadMap load;
  sim::BatchResult batch;
  sim::route_batch(network, *spf, flows, demands, load, sim::TraceMode::kStats, batch);
  double peak = 0.0;
  for (const double v : load.darts()) peak = std::max(peak, v);
  return traffic::CapacityPlan::uniform(g, peak / kBaselineUtilization);
}

std::string mismatch(const std::string& protocol, const char* what) {
  return "oracle mismatch: " + protocol + ": " + what;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void plan_demand(Instance& inst) {
  inst.demand =
      traffic::gravity_demand(inst.graph, kTotalDemandPps, traffic::GravityMass::kDegree);
  inst.plan = size_plan(inst.graph, *inst.suite, inst.demand);
}

void build_scenarios(Instance& inst, std::size_t scenarios) {
  const graph::Graph& g = inst.graph;
  const WorkloadSpec& spec = *inst.spec;
  if (spec.driver == Driver::kStorm) {
    inst.catalog = std::make_unique<net::SrlgCatalog>(net::geographic_srlgs(g, kSrlgRadius));
    inst.model = std::make_unique<net::IndependentOutages>(
        net::IndependentOutages::uniform(*inst.catalog, kOutageProbability));
    inst.storm.scenarios = scenarios;
    inst.storm.seed = inst.seed;
    return;
  }
  // Distinct dual-link failures that leave the graph connected (the
  // library's sampler; the regime where PR guarantees delivery), drawn from
  // a fixed stream.
  graph::Rng rng(graph::split_seed(spec.default_seed, 1));
  inst.scenarios = net::sample_connected_failures(g, 2, scenarios, rng);
}

std::unique_ptr<Instance> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::size_t scenarios) {
  auto inst = std::make_unique<Instance>();
  inst->spec = &spec;
  inst->seed = seed;
  if (spec.isp_nodes == 0) {
    inst->graph = topo::geant();
  } else {
    graph::Rng rng(kIspGeneratorSeed + spec.isp_nodes);
    inst->graph = graph::hierarchical_isp(graph::sized_isp_params(spec.isp_nodes), rng).graph;
  }
  inst->suite = std::make_unique<analysis::ProtocolSuite>(inst->graph);
  inst->protocols = {inst->suite->pr(), inst->suite->lfa(), inst->suite->reconvergence()};
  plan_demand(*inst);
  build_scenarios(*inst, scenarios);
  inst->executor = std::make_unique<sim::SweepExecutor>(kThreads);
  return inst;
}

std::string encode(const analysis::StormExperimentResult& r) {
  analysis::CheckpointWriter w;
  w.u64(r.scenarios);
  w.u64(r.flows_per_scenario);
  w.f64(r.offered_pps);
  put_summary(w, r.failed_groups);
  put_summary(w, r.failed_edges);
  w.u64(r.calm_scenarios);
  w.u64(r.disconnected_scenarios);
  w.u64(r.protocols.size());
  for (const analysis::StormProtocolResult& p : r.protocols) {
    w.str(p.name);
    put_summary(w, p.utilization);
    put_summary(w, p.stretch);
    put_doubles(w, p.quantiles);
    put_doubles(w, p.utilization_quantiles);
    put_doubles(w, p.stretch_quantiles);
    w.f64(p.delivered_pps);
    w.f64(p.lost_pps);
    w.f64(p.stranded_pps);
    w.u64(p.overloaded_links);
    w.u64(p.overloaded_scenarios);
    w.u64(p.lossy_scenarios);
    w.u64(p.rerouted_flows);
    w.u64(p.worst.size());
    for (const auto& e : p.worst) {
      w.f64(e.key);
      w.u64(e.id);
      w.f64(e.value.max_utilization);
      w.f64(e.value.max_stretch);
      w.f64(e.value.lost_pps);
      w.f64(e.value.stranded_pps);
      w.u64(e.value.failed_groups.size());
      for (const std::size_t gid : e.value.failed_groups) w.u64(gid);
      w.u64(e.value.failed_edges);
    }
  }
  return w.finish();
}

std::string encode(const analysis::TrafficExperimentResult& r) {
  analysis::CheckpointWriter w;
  w.u64(r.scenarios);
  w.u64(r.flows_per_scenario);
  w.u64(static_cast<std::uint64_t>(r.mode));
  w.u64(r.protocols.size());
  for (const analysis::ProtocolTraffic& p : r.protocols) {
    w.str(p.name);
    w.u64(p.rerouted_flows);
    w.u64(p.per_scenario.size());
    for (const traffic::CongestionMetrics& m : p.per_scenario) {
      w.f64(m.max_utilization);
      w.u64(m.overloaded_links);
      w.f64(m.offered_pps);
      w.f64(m.delivered_pps);
      w.f64(m.lost_pps);
      w.f64(m.stranded_pps);
    }
    w.u64(p.total_load.scenarios);
    w.u64(p.total_load.load.dart_count());
    for (const double v : p.total_load.load.darts()) w.f64(v);
  }
  return w.finish();
}

std::uint64_t digest(const DriverResult& r) {
  return std::visit(
      [](const auto& result) { return analysis::checkpoint_digest(encode(result)); }, r);
}

DriverResult call_driver(const Instance& inst, sim::SweepExecutor& executor) {
  if (inst.spec->driver == Driver::kStorm) {
    return analysis::run_storm_experiment(inst.graph, inst.demand, inst.plan, *inst.model,
                                          inst.protocols, inst.storm, executor);
  }
  return analysis::run_traffic_experiment(inst.graph, inst.demand, inst.plan, inst.scenarios,
                                          inst.protocols, executor,
                                          analysis::TrafficSweepMode::kIncremental);
}

PrefixRows prefix_rows(const DriverResult& r, std::size_t count) {
  PrefixRows rows;
  if (const auto* traffic = std::get_if<analysis::TrafficExperimentResult>(&r)) {
    for (const analysis::ProtocolTraffic& p : traffic->protocols) {
      const std::size_t n = std::min(count, p.per_scenario.size());
      rows.emplace_back(p.per_scenario.begin(),
                        p.per_scenario.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  return rows;
}

std::string check_oracle_prefix(const Instance& inst, sim::SweepExecutor& executor,
                                const PrefixRows& rows) {
  const std::size_t prefix = std::min(inst.spec->oracle_prefix, inst.scenario_count());
  if (prefix == 0) return "empty oracle prefix";
  const graph::Graph& g = inst.graph;

  if (inst.spec->driver == Driver::kTraffic) {
    const analysis::TrafficExperimentResult oracle = analysis::run_traffic_experiment(
        g, inst.demand, inst.plan,
        std::span<const graph::EdgeSet>(inst.scenarios).first(prefix), inst.protocols,
        executor, analysis::TrafficSweepMode::kFullReroute);
    if (rows.size() != oracle.protocols.size()) return "oracle: protocol count";
    for (std::size_t i = 0; i < oracle.protocols.size(); ++i) {
      if (oracle.protocols[i].per_scenario != rows[i]) {
        return mismatch(oracle.protocols[i].name, "per-scenario metric rows");
      }
    }
    return {};
  }

  // Storm: the prefix's sampled failure sets, drawn exactly as the driver
  // draws scenario i (RNG stream split_seed(seed, i)).
  std::vector<graph::EdgeSet> sets;
  std::size_t calm = 0;
  std::size_t disconnected = 0;
  net::StormSample sample;
  for (std::size_t i = 0; i < prefix; ++i) {
    graph::Rng rng(sim::split_seed(inst.storm.seed, i));
    inst.model->sample(rng, sample);
    calm += sample.groups.empty() ? 1 : 0;
    const auto component = graph::connected_components(g, &sample.failures);
    disconnected += *std::max_element(component.begin(), component.end()) > 0 ? 1 : 0;
    sets.push_back(sample.failures);
  }
  const analysis::TrafficExperimentResult oracle = analysis::run_traffic_experiment(
      g, inst.demand, inst.plan, sets, inst.protocols, executor,
      analysis::TrafficSweepMode::kFullReroute);
  analysis::StormSweepConfig config = inst.storm;
  config.scenarios = prefix;
  const analysis::StormExperimentResult storm = analysis::run_storm_experiment(
      g, inst.demand, inst.plan, *inst.model, inst.protocols, config, executor);

  if (storm.scenarios != prefix) return "storm prefix: scenario count";
  if (storm.calm_scenarios != calm) return "storm prefix: calm scenario count";
  if (storm.disconnected_scenarios != disconnected) {
    return "storm prefix: disconnected scenario count";
  }
  for (std::size_t i = 0; i < oracle.protocols.size(); ++i) {
    const analysis::StormProtocolResult& got = storm.protocols[i];
    analysis::RunningSummary utilization;
    double delivered = 0.0;
    double lost = 0.0;
    double stranded = 0.0;
    std::size_t overloaded_links = 0;
    std::size_t overloaded_scenarios = 0;
    std::size_t lossy = 0;
    for (const traffic::CongestionMetrics& m : oracle.protocols[i].per_scenario) {
      utilization.add(m.max_utilization);
      delivered += m.delivered_pps;
      lost += m.lost_pps;
      stranded += m.stranded_pps;
      overloaded_links += m.overloaded_links;
      overloaded_scenarios += m.overloaded_links > 0 ? 1 : 0;
      lossy += m.lost_pps > 0.0 ? 1 : 0;
    }
    if (!(utilization == got.utilization)) return mismatch(got.name, "utilization stream");
    if (delivered != got.delivered_pps || lost != got.lost_pps ||
        stranded != got.stranded_pps) {
      return mismatch(got.name, "delivered/lost/stranded volume");
    }
    if (overloaded_links != got.overloaded_links ||
        overloaded_scenarios != got.overloaded_scenarios || lossy != got.lossy_scenarios) {
      return mismatch(got.name, "overload/loss counts");
    }
  }
  return {};
}

}  // namespace sweepbench
