// Perf bench for the batched forwarding engine: per-packet route_packet vs
// stats-only and full-trace route_batch on a 1k-flow Abilene sweep, plus a
// looping row of walks that cycle until the TTL guard, which the engine
// takes from its walk log instead of deciding every hop.
//
// Emits the machine-readable BENCH_route_batch.json schema (also printed to
// stdout) so successive PRs can track the forwarding path's throughput:
//
//   {
//     "bench": "route_batch", "topology": "abilene",
//     "nodes": N, "links": M, "flows": F, "failed_links": K,
//     "repetitions": R,
//     "results": [ { "protocol": "...",
//                    "per_packet_ns_per_flow": ...,
//                    "batch_stats_ns_per_flow": ...,
//                    "batch_full_trace_ns_per_flow": ...,
//                    "speedup_stats_vs_per_packet": ... }, ... ],
//     "looping": { "failed_links": ["Seattle-Sunnyvale", "Seattle-Denver"],
//                  "results": [ { "protocol": "...",
//                                 "ttl_expired_flows": ..., "hops": ...,
//                                 "per_packet_ns_per_hop": ...,
//                                 "batch_stats_ns_per_hop": ...,
//                                 "batch_full_trace_ns_per_hop": ... }, ... ] }
//   }
//
// The looping row cuts Seattle off, so PR and LFA flows towards it cycle
// until the TTL guard drops them.  A route_packet walk has a log of its own;
// a route_batch call shares one across its flows.  Before timing, the bench
// checks route_packet and both route_batch trace modes against the
// hop-by-hop decide()/commit() walk of every flow (status, drop reason,
// hops, cost bits, route_packet's nodes and route_batch's darts) and exits
// non-zero on any difference.
//
// Timings are the best of R repetitions (least-noise estimator for
// throughput benches).
//
//   $ ./bench_route_batch [flows] [repetitions]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../tests/reference_walk.hpp"
#include "analysis/protocols.hpp"
#include "sim/forwarding_engine.hpp"
#include "topo/topologies.hpp"
#include "util/atomic_file.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace pr;

/// Best-of-`repetitions` wall time of `work`, divided by `units` (flows or
/// hops).
double best_ns_per(std::size_t repetitions, std::size_t units,
                   const std::function<std::uint64_t()>& work) {
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t checksum = 0;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    const auto start = Clock::now();
    checksum += work();
    const auto ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
            .count());
    best = std::min(best, ns / static_cast<double>(units));
  }
  if (checksum == 0) throw std::runtime_error("bench delivered nothing");
  return best;
}

/// Throws unless `stats` and `traced` (the same flows routed in both trace
/// modes) and `walks` (route_packet of each flow) equal the hop-by-hop
/// decide()/commit() walk of every flow.
void check_against_reference(const net::Network& network,
                             const analysis::NamedFactory& factory,
                             const std::vector<sim::FlowSpec>& flows,
                             const sim::BatchResult& stats,
                             const sim::BatchResult& traced,
                             const std::vector<net::PathTrace>& walks) {
  const auto proto = factory.make(network);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const test_support::ReferenceWalk walk = test_support::reference_walk(
        network, *proto, flows[f].source, flows[f].destination);
    const net::PathTrace& single = walks[f];
    bool same = std::ranges::equal(traced.darts(f), walk.darts) &&
                single.nodes == walk.trace.nodes && single.status == walk.trace.status &&
                single.drop_reason == walk.trace.drop_reason &&
                single.hops == walk.trace.hops &&
                std::bit_cast<std::uint64_t>(single.cost) ==
                    std::bit_cast<std::uint64_t>(walk.trace.cost);
    for (const sim::BatchResult* batch : {&stats, &traced}) {
      const sim::FlowStats& got = (*batch)[f];
      same = same && got.status == walk.trace.status &&
             got.drop_reason == walk.trace.drop_reason && got.hops == walk.trace.hops &&
             std::bit_cast<std::uint64_t>(got.cost) ==
                 std::bit_cast<std::uint64_t>(walk.trace.cost);
    }
    if (!same) {
      throw std::runtime_error("route_batch differs from the hop-by-hop walk: " +
                               factory.name + ", flow " + std::to_string(f));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t flow_target = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000;
  const std::size_t repetitions = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);

  // One failed link so the sweep exercises the recovery paths, not just plain
  // shortest-path forwarding.
  net::Network network(g);
  network.fail_link(0);

  // 1k-flow sweep: all ordered pairs, repeated until the target is reached.
  const auto pairs = sim::all_pairs_flows(g);
  std::vector<sim::FlowSpec> flows;
  flows.reserve(flow_target);
  while (flows.size() < flow_target) {
    for (const auto& pair : pairs) {
      if (flows.size() == flow_target) break;
      flows.push_back(pair);
    }
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"route_batch\",\n"
       << "  \"topology\": \"abilene\",\n"
       << "  \"nodes\": " << g.node_count() << ",\n"
       << "  \"links\": " << g.edge_count() << ",\n"
       << "  \"flows\": " << flows.size() << ",\n"
       << "  \"failed_links\": " << network.failure_count() << ",\n"
       << "  \"repetitions\": " << repetitions << ",\n"
       << "  \"results\": [";

  const std::vector<analysis::NamedFactory> measured = {suite.spf(), suite.pr(),
                                                        suite.fcp()};
  bool first = true;
  for (const auto& factory : measured) {
    const auto proto = factory.make(network);

    const double per_packet =
        best_ns_per(repetitions, flows.size(), [&]() -> std::uint64_t {
          std::uint64_t delivered = 0;
          for (const auto& flow : flows) {
            delivered += net::route_packet(network, *proto, flow.source,
                                           flow.destination)
                             .delivered();
          }
          return delivered;
        });

    sim::BatchResult batch;  // reused: steady-state allocation-free routing
    const double batch_stats =
        best_ns_per(repetitions, flows.size(), [&]() -> std::uint64_t {
          sim::route_batch(network, *proto, flows, sim::TraceMode::kStats, batch);
          return batch.delivered_count();
        });

    sim::BatchResult traced;
    const double batch_traced =
        best_ns_per(repetitions, flows.size(), [&]() -> std::uint64_t {
          sim::route_batch(network, *proto, flows, sim::TraceMode::kFullTrace, traced);
          return traced.delivered_count();
        });

    json << (first ? "" : ",") << "\n    { \"protocol\": \"" << proto->name()
         << "\",\n      \"per_packet_ns_per_flow\": " << per_packet
         << ",\n      \"batch_stats_ns_per_flow\": " << batch_stats
         << ",\n      \"batch_full_trace_ns_per_flow\": " << batch_traced
         << ",\n      \"speedup_stats_vs_per_packet\": " << per_packet / batch_stats
         << " }";
    first = false;
  }
  json << "\n  ],\n";

  // Looping row: Seattle cut off.  Flows towards it loop until the TTL guard
  // under PR and LFA, so most of their hops come from the walk log, not a
  // decision.
  net::Network cut(g);
  const std::vector<std::pair<const char*, const char*>> cut_links = {
      {"Seattle", "Sunnyvale"}, {"Seattle", "Denver"}};
  json << "  \"looping\": {\n    \"failed_links\": [";
  for (std::size_t i = 0; i < cut_links.size(); ++i) {
    const auto [u, v] = cut_links[i];
    cut.fail_link(*g.find_edge(*g.find_node(u), *g.find_node(v)));
    json << (i == 0 ? "" : ", ") << "\"" << u << "-" << v << "\"";
  }
  json << "],\n    \"results\": [";
  first = true;
  for (const auto& factory : {suite.pr(), suite.lfa()}) {
    const auto proto = factory.make(cut);
    sim::BatchResult batch;
    sim::BatchResult traced;
    sim::route_batch(cut, *proto, flows, sim::TraceMode::kStats, batch);
    sim::route_batch(cut, *proto, flows, sim::TraceMode::kFullTrace, traced);
    std::vector<net::PathTrace> walks;
    walks.reserve(flows.size());
    for (const auto& flow : flows) {
      walks.push_back(net::route_packet(cut, *proto, flow.source, flow.destination));
    }
    check_against_reference(cut, factory, flows, batch, traced, walks);
    std::size_t hops = 0;
    std::size_t ttl_expired = 0;
    for (const sim::FlowStats& s : batch.stats()) {
      hops += s.hops;
      if (s.drop_reason == net::DropReason::kTtlExpired) ++ttl_expired;
    }
    if (ttl_expired == 0) throw std::runtime_error("looping row: no flow loops");

    const double per_packet_ns = best_ns_per(repetitions, hops, [&]() -> std::uint64_t {
      std::uint64_t walked = 0;
      for (const auto& flow : flows) {
        walked += net::route_packet(cut, *proto, flow.source, flow.destination).hops;
      }
      return walked;
    });
    const double stats_ns = best_ns_per(repetitions, hops, [&]() -> std::uint64_t {
      sim::route_batch(cut, *proto, flows, sim::TraceMode::kStats, batch);
      return batch.delivered_count();
    });
    const double traced_ns = best_ns_per(repetitions, hops, [&]() -> std::uint64_t {
      sim::route_batch(cut, *proto, flows, sim::TraceMode::kFullTrace, traced);
      return traced.delivered_count();
    });
    json << (first ? "" : ",") << "\n      { \"protocol\": \"" << proto->name()
         << "\",\n        \"ttl_expired_flows\": " << ttl_expired
         << ",\n        \"hops\": " << hops
         << ",\n        \"per_packet_ns_per_hop\": " << per_packet_ns
         << ",\n        \"batch_stats_ns_per_hop\": " << stats_ns
         << ",\n        \"batch_full_trace_ns_per_hop\": " << traced_ns << " }";
    first = false;
  }
  json << "\n    ]\n  }\n}\n";

  std::cout << json.str();
  util::atomic_write_file("BENCH_route_batch.json", json.str());
  std::cerr << "wrote BENCH_route_batch.json\n";
  return 0;
}
