// Parity suite for the batched forwarding engine (sim/forwarding_engine.hpp).
//
// The engine is only allowed to be fast, not different: for every protocol,
// topology and failure set, route_packet and route_batch must report
// bit-identical delivery status, drop reason, hop count, cost, dart sequence
// (and route_packet's node sequence), final header and demand-weighted link
// load to the hop-by-hop decide()/commit() walk (tests/reference_walk.hpp).
// That walk is the reference because ForwardingEngine::run, which both
// front-ends drive, takes hops from a walk log instead of deciding them: a
// looping walk's period, and in a batch the hops an earlier flow's walk
// decided.  The event simulator must agree too, since it drives the same
// hop core.
#include "sim/forwarding_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/protocols.hpp"
#include "core/policy.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/event_sim.hpp"
#include "net/failure_model.hpp"
#include "net/storm_model.hpp"
#include "obs/telemetry.hpp"
#include "reference_walk.hpp"
#include "topo/topologies.hpp"
#include "traffic/load_map.hpp"

namespace pr {
namespace {

using sim::BatchResult;
using sim::FlowSpec;
using sim::TraceMode;
using test_support::ReferenceWalk;

/// Every protocol the library ships, built over `suite`.
std::vector<analysis::NamedFactory> all_protocols(const analysis::ProtocolSuite& suite) {
  return {suite.spf(),
          suite.reconvergence(),
          suite.fcp(),
          suite.lfa(),
          suite.lfa_node_protecting(),
          suite.lfa_post_convergence(),
          suite.pr(),
          suite.pr_single_bit(),
          // Section-7 PR for class 5 only; class-0 flows ride plain SPF.
          {"pr-policy-gated", [&suite](const net::Network&) {
             return std::make_unique<core::PolicyGatedRecycling>(
                 suite.routes(), suite.cycle_table(), core::TrafficClassPolicy{5});
           }}};
}

std::vector<FlowSpec> all_ordered_pairs(const graph::Graph& g) {
  std::vector<FlowSpec> flows = sim::all_pairs_flows(g);
  // Alternate classes so the policy-gated protocol takes both branches.
  for (std::size_t f = 0; f < flows.size(); f += 2) flows[f].traffic_class = 5;
  return flows;
}

/// Cost parity is exact: bit patterns, not a tolerance.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_stats(const sim::FlowStats& got, const net::PathTrace& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.drop_reason, want.drop_reason);
  EXPECT_EQ(got.hops, want.hops);
  EXPECT_EQ(bits(got.cost), bits(want.cost));
}

void expect_same_header(const net::Packet& got, const net::Packet& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.destination, want.destination);
  EXPECT_EQ(got.pr_bit, want.pr_bit);
  EXPECT_EQ(got.dd, want.dd);
  EXPECT_EQ(got.fcp_failures, want.fcp_failures);
  EXPECT_EQ(got.ttl, want.ttl);
  EXPECT_EQ(got.traffic_class, want.traffic_class);
  EXPECT_EQ(got.id, want.id);
}

/// Routes `flows` with the hop-by-hop reference walk, the legacy walker and
/// route_batch (both trace modes, plain and demand-weighted), asserting
/// identical outcomes flow by flow.
void expect_parity(const net::Network& network, const analysis::NamedFactory& factory,
                   const std::vector<FlowSpec>& flows) {
  // Each side gets its own fresh instance and sees the flows in the same
  // order, so even stateful protocols (FCP's SPF cache) are comparable.
  const auto reference_proto = factory.make(network);
  std::vector<ReferenceWalk> reference;
  reference.reserve(flows.size());
  for (const auto& flow : flows) {
    reference.push_back(test_support::reference_walk(network, *reference_proto,
                                                     flow.source, flow.destination,
                                                     flow.ttl, flow.traffic_class));
  }

  const auto legacy_proto = factory.make(network);
  std::vector<net::PathTrace> legacy;
  legacy.reserve(flows.size());
  for (const auto& flow : flows) {
    legacy.push_back(net::route_packet(network, *legacy_proto, flow.source,
                                       flow.destination, flow.ttl, flow.traffic_class));
  }

  const auto stats_proto = factory.make(network);
  const BatchResult stats = sim::route_batch(network, *stats_proto, flows);
  const auto traced_proto = factory.make(network);
  const BatchResult traced =
      sim::route_batch(network, *traced_proto, flows, TraceMode::kFullTrace);

  // Demand-weighted: distinct, inexact rates, so a load added in a different
  // order (or a hop added twice and one missed) changes the bits.
  std::vector<double> demands(flows.size());
  traffic::LoadMap want_load(network.graph().dart_count());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    demands[f] = 1.0 + 0.1 * static_cast<double>(f % 97);
    for (const graph::DartId d : reference[f].darts) want_load.add(d, demands[f]);
  }
  BatchResult weighted_stats;
  BatchResult weighted_traced;
  for (BatchResult* weighted : {&weighted_stats, &weighted_traced}) {
    const auto proto = factory.make(network);
    traffic::LoadMap load;
    const TraceMode mode =
        weighted == &weighted_stats ? TraceMode::kStats : TraceMode::kFullTrace;
    sim::route_batch(network, *proto, flows, demands, load, mode, *weighted);
    const traffic::LoadMapDiff diff = traffic::diff(load, want_load);
    EXPECT_TRUE(diff.identical())
        << factory.name << ": " << diff.differing << " darts differ, worst "
        << diff.worst_dart << " by " << diff.max_abs_delta;
  }

  ASSERT_EQ(stats.size(), flows.size());
  ASSERT_EQ(traced.size(), flows.size());
  const BatchResult* const batches[] = {&stats, &traced, &weighted_stats,
                                        &weighted_traced};
  const BatchResult* const traced_batches[] = {&traced, &weighted_traced};
  std::size_t delivered = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    SCOPED_TRACE("protocol " + factory.name + ", flow " + std::to_string(f) + " (" +
                 std::to_string(flows[f].source) + " -> " +
                 std::to_string(flows[f].destination) + ", ttl " +
                 std::to_string(flows[f].ttl) + ")");
    const net::PathTrace& want = reference[f].trace;
    EXPECT_EQ(legacy[f].status, want.status);
    EXPECT_EQ(legacy[f].drop_reason, want.drop_reason);
    EXPECT_EQ(legacy[f].hops, want.hops);
    EXPECT_EQ(bits(legacy[f].cost), bits(want.cost));
    EXPECT_EQ(legacy[f].nodes, want.nodes);
    expect_same_header(legacy[f].final_packet, want.final_packet);
    for (const BatchResult* batch : batches) {
      expect_same_stats((*batch)[f], want);
    }
    EXPECT_TRUE(stats.darts(f).empty());  // stats mode records no sequences
    for (const BatchResult* batch : traced_batches) {
      EXPECT_TRUE(std::ranges::equal(batch->darts(f), reference[f].darts));
    }
    if (want.delivered()) ++delivered;
  }
  EXPECT_EQ(stats.delivered_count(), delivered);
  EXPECT_EQ(stats.dropped_count(), flows.size() - delivered);
  EXPECT_EQ(traced.delivered_count(), delivered);
}

TEST(RouteBatchParity, AbileneAllProtocolsAcrossFailureSets) {
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto flows = all_ordered_pairs(g);

  graph::Rng rng(0xBA7C4);
  for (std::size_t failures : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    net::Network network(g);
    for (std::size_t k = 0; k < failures; ++k) {
      network.fail_link(static_cast<graph::EdgeId>(rng.below(g.edge_count())));
    }
    for (const auto& factory : all_protocols(suite)) {
      expect_parity(network, factory, flows);
    }
  }
}

TEST(RouteBatchParity, RandomTopologiesWithArbitraryFailures) {
  graph::Rng rng(0x5EED);
  for (int round = 0; round < 4; ++round) {
    const auto n = static_cast<std::size_t>(8 + 2 * round);
    const graph::Graph g = graph::random_two_edge_connected(n, n / 2, rng);
    const analysis::ProtocolSuite suite(g);
    const auto flows = all_ordered_pairs(g);

    // Arbitrary failure sets -- possibly disconnecting, so drop parity
    // (status AND reason) is exercised, not just the happy path.
    net::Network network(g);
    const std::size_t failures = 1 + rng.below(3);
    for (std::size_t k = 0; k < failures; ++k) {
      network.fail_link(static_cast<graph::EdgeId>(rng.below(g.edge_count())));
    }
    for (const auto& factory : all_protocols(suite)) {
      expect_parity(network, factory, flows);
    }
  }
}

/// The storm-geant benchmark's failure model: radius-2 geographic SRLGs on
/// GEANT, each failing independently with p = 0.02.  About half its draws
/// partition the graph, so flows towards the cut-off nodes loop until the
/// TTL guard under PR and LFA, and run() takes their hops from the walk log.
struct GeantStorm {
  graph::Graph g = topo::geant();
  analysis::ProtocolSuite suite{g};
  net::SrlgCatalog catalog = net::geographic_srlgs(g, 2);
  net::IndependentOutages model = net::IndependentOutages::uniform(catalog, 0.02);

  /// Draw `i` of the stream the benchmark samples at its default seed.
  [[nodiscard]] net::Network draw(std::size_t i) const {
    graph::Rng rng(graph::split_seed(0x5708, i));
    net::StormSample sample;
    model.sample(rng, sample);
    net::Network network(g);
    for (const graph::EdgeId e : sample.failures.elements()) network.fail_link(e);
    return network;
  }
};

TEST(RouteBatchParity, GeantStormDrawsAllProtocols) {
  const GeantStorm storm;
  const std::size_t n = storm.g.node_count();
  obs::Counters counters;
  const obs::ScopedSink sink(&counters);
  for (std::size_t i = 0; i < 200; ++i) {
    const net::Network network = storm.draw(i);
    // Every source towards two destinations that rotate with the draw.
    std::vector<FlowSpec> flows;
    for (const std::size_t t : {i % n, (i + n / 2) % n}) {
      for (graph::NodeId s = 0; s < n; ++s) {
        if (s == t) continue;
        flows.push_back(FlowSpec{s, static_cast<graph::NodeId>(t), 0,
                                 static_cast<std::uint8_t>(s % 2 == 0 ? 5 : 0)});
      }
    }
    for (const auto& factory : all_protocols(storm.suite)) {
      expect_parity(network, factory, flows);
    }
  }
#if !defined(PR_OBS_DISABLED)
  // The draws exercised the walk log: some hops were not decided.
  EXPECT_LT(counters.get(obs::Counter::kForwardDecisions),
            counters.get(obs::Counter::kForwardHops));
#endif
}

TEST(RouteBatchParity, TtlSweepOverLoopingFlowsCoversEveryRemainder) {
  // A looping walk logs from its eighth hop, decides its period once more
  // when it first returns to a logged state, then takes floor(ttl / period)
  // periods and the remainder from the log.  Sweeping the TTL from 1 to
  // twice the default runs every TTL shorter than the detection point and
  // every remainder mod the period through route_packet, whose walk has a
  // log of its own; in the batches, each flow follows the walks of the
  // shorter-lived flows before it and resumes deciding where they stopped.
  const GeantStorm storm;
  const std::uint32_t max_ttl = 2 * net::default_ttl(storm.g);
  const auto pairs = sim::all_pairs_flows(storm.g);
  for (const auto& factory :
       {storm.suite.pr(), storm.suite.pr_single_bit(), storm.suite.lfa()}) {
    std::size_t looping = 0;
    for (std::size_t i = 0; i < 200 && looping < 3; ++i) {
      const net::Network network = storm.draw(i);
      const auto proto = factory.make(network);
      const BatchResult batch = sim::route_batch(network, *proto, pairs);
      const auto stats = batch.stats();
      const auto it = std::ranges::find_if(stats, [](const sim::FlowStats& s) {
        return s.drop_reason == net::DropReason::kTtlExpired;
      });
      if (it == stats.end()) continue;
      const FlowSpec& flow = pairs[static_cast<std::size_t>(it - stats.begin())];
      std::vector<FlowSpec> sweep;
      for (std::uint32_t ttl = 1; ttl <= max_ttl; ++ttl) {
        sweep.push_back(FlowSpec{flow.source, flow.destination, ttl});
      }
      obs::Counters counters;
      {
        const obs::ScopedSink sink(&counters);
        expect_parity(network, factory, sweep);
      }
#if !defined(PR_OBS_DISABLED)
      EXPECT_LT(counters.get(obs::Counter::kForwardDecisions),
                counters.get(obs::Counter::kForwardHops) / 2)
          << factory.name << " draw " << i;
#endif
      ++looping;
    }
    EXPECT_EQ(looping, 3U) << factory.name;
  }
}

/// Circles a ring forever while counting laps in its header: on arriving at
/// node 0 it steps a counter held in (pr_bit, dd, FCP list) -- pr_bit is
/// the lap count mod 2, dd the next digit mod 3, and the FCP list holds
/// edge 0 on every other pass of those.  Its darts repeat every lap, its
/// decision state only every twelve laps: a log keyed on anything less than
/// the full state would repeat the wrong period.
class LapCounter final : public net::ForwardingProtocol {
 public:
  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net,
                                                graph::NodeId at,
                                                graph::DartId arrived_over,
                                                net::Packet& packet) override {
    if (at == packet.destination) return net::ForwardingDecision::deliver();
    if (at == 0 && arrived_over != graph::kInvalidDart) {
      const bool carry = packet.pr_bit;
      packet.pr_bit = !packet.pr_bit;
      if (carry) {
        packet.dd = (packet.dd + 1) % 3;
        if (packet.dd == 0) {
          if (packet.fcp_failures.empty()) {
            packet.fcp_failures.push_back(0);
          } else {
            packet.fcp_failures.clear();
          }
        }
      }
    }
    const graph::NodeId next = (at + 1) % 4;
    return net::ForwardingDecision::forward(*net.graph().find_dart(at, next));
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lap-counter";
  }
};

TEST(RouteBatchParity, ReplayKeysOnTheWholeHeaderState) {
  // A 4-ring plus an isolated destination: every walk circles until the TTL
  // guard.  A walk logs from hop 8, is back at its first logged state after
  // hop 55 and decides the 48-hop period once more by hop 103; TTLs up to
  // 400 end at every lap count after that, so the final header shows
  // whether the replay kept the state.
  graph::Graph g(5);
  for (graph::NodeId v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);
  const net::Network network(g);
  const analysis::NamedFactory factory{
      "lap-counter",
      [](const net::Network&) { return std::make_unique<LapCounter>(); }};
  std::vector<FlowSpec> flows;
  for (std::uint32_t ttl = 1; ttl <= 400; ++ttl) {
    flows.push_back(FlowSpec{static_cast<graph::NodeId>(ttl % 4), 4, ttl});
  }
  obs::Counters counters;
  {
    const obs::ScopedSink sink(&counters);
    expect_parity(network, factory, flows);
  }
#if !defined(PR_OBS_DISABLED)
  EXPECT_LT(counters.get(obs::Counter::kForwardDecisions),
            counters.get(obs::Counter::kForwardHops));
#endif
}

TEST(RouteBatchLog, FlowsTowardsACutOffNodeFollowEarlierWalks) {
  // Under PR, every flow towards a node a storm cuts off loops until the TTL
  // guard.  Once the first of them has logged its walk, the others soon reach
  // a state it logged and follow its hops, so each further flow decides its
  // first seven hops, which no walk logs, and few more.  Were the log not
  // shared across the batch, every flow would pay for finding its own period.
  const GeantStorm storm;
  const std::size_t n = storm.g.node_count();
  std::size_t cut_draws = 0;
  for (std::size_t i = 0; cut_draws < 12; ++i) {
    ASSERT_LT(i, 1000U) << "too few draws cut a node off";
    const net::Network network = storm.draw(i);
    const std::vector<std::uint32_t> component =
        graph::connected_components(storm.g, &network.failed_links());
    std::vector<std::size_t> component_size(n, 0);
    for (const std::uint32_t c : component) ++component_size[c];
    // The cut-off node: the lowest-numbered node of a smallest component.
    graph::NodeId cut = 0;
    for (graph::NodeId v = 1; v < n; ++v) {
      if (component_size[component[v]] < component_size[component[cut]]) cut = v;
    }
    if (component_size[component[cut]] == n) continue;
    ++cut_draws;
    std::vector<FlowSpec> flows;
    for (graph::NodeId s = 0; s < n; ++s) {
      if (component[s] != component[cut]) flows.push_back(FlowSpec{s, cut});
    }
#if !defined(PR_OBS_DISABLED)
    const auto decisions = [&](std::span<const FlowSpec> batch) {
      obs::Counters counters;
      const obs::ScopedSink sink(&counters);
      const auto proto = storm.suite.pr().make(network);
      (void)sim::route_batch(network, *proto, batch);
      return counters.get(obs::Counter::kForwardDecisions);
    };
    const std::uint64_t first = decisions(std::span(flows).first(1));
    EXPECT_LT(decisions(flows), first + 16 * (flows.size() - 1))
        << "draw " << i << ", " << flows.size() << " flows to node " << cut;
#endif
  }
}

/// Routes towards a lollipop: a tail 0-1-...-9 joined to a ring 10-...-21.
/// Up the tail, then round the ring, clockwise for even traffic classes and
/// anticlockwise for odd ones; on the ring it delivers to an adjacent
/// destination, or, if the link to it is down, sets the PR bit and drops the
/// packet (kNoRoute).  Walks towards a node off the ring circle until the
/// TTL guard.
class Lollipop final : public net::ForwardingProtocol {
 public:
  static constexpr graph::NodeId kRingBegin = 10;
  static constexpr graph::NodeId kRingEnd = 22;

  [[nodiscard]] static graph::Graph graph() {
    graph::Graph g(25);  // 22 and 24 isolated; 23 hangs off 16
    for (graph::NodeId v = 0; v < kRingBegin; ++v) g.add_edge(v, v + 1);
    for (graph::NodeId v = kRingBegin; v < kRingEnd; ++v) {
      g.add_edge(v, v + 1 == kRingEnd ? kRingBegin : v + 1);
    }
    g.add_edge(16, 23);
    return g;
  }

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net,
                                                graph::NodeId at,
                                                graph::DartId /*arrived_over*/,
                                                net::Packet& packet) override {
    const graph::Graph& g = net.graph();
    if (at == packet.destination) return net::ForwardingDecision::deliver();
    if (at >= kRingBegin) {
      if (const auto d = g.find_dart(at, packet.destination)) {
        if (net.dart_usable(*d)) return net::ForwardingDecision::forward(*d);
        packet.pr_bit = true;  // a follower's final header comes from the log
        return net::ForwardingDecision::drop(net::DropReason::kNoRoute);
      }
    }
    graph::NodeId next = at + 1 == kRingEnd ? kRingBegin : at + 1;
    if (at >= kRingBegin && packet.traffic_class % 2 == 1) {
      next = at == kRingBegin ? kRingEnd - 1 : at - 1;
    }
    return net::ForwardingDecision::forward(*g.find_dart(at, next));
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "lollipop"; }
};

TEST(RouteBatchLog, EveryWayAFollowedStretchEnds) {
  // Walks log from their eighth hop, so each later flow below reaches a
  // logged state at its first lookup (or soon after) and follows hops an
  // earlier flow of the batch decided.  The default TTL is 4 * 23 + 16 = 108.
  const graph::Graph g = Lollipop::graph();
  net::Network network(g);
  network.fail_link(*g.find_edge(16, 23));
  const analysis::NamedFactory factory{
      "lollipop", [](const net::Network&) { return std::make_unique<Lollipop>(); }};
  const std::vector<FlowSpec> flows = {
      // Delivered at hop 17; 2 -> 17 follows it to the destination.  The
      // same flow in class 1 goes round the other way: its states differ
      // only in the traffic class, and it follows nothing.
      {0, 17},
      {2, 17},
      {2, 17, 0, 1},
      // Dropped at 16 after 16 hops; 1 -> 23 follows it to the drop, and
      // 9 -> 23 reaches the logged drop itself at its first lookup.
      {0, 23},
      {1, 23},
      {9, 23},
      // Circles from hop 10 on; its 12-hop period closes at hop 23.  2 -> 22
      // joins it on the tail (its transient) and 12 -> 22 inside the period;
      // both follow it round until the TTL guard.  1 -> 22's TTL of 14 runs
      // out inside the stretch it follows.
      {0, 22},
      {2, 22},
      {12, 22},
      {1, 22, 14},
      // Cut short by its TTL at hop 12; 1 -> 24 follows it there, then
      // decides on, finds its own period and replays it.
      {0, 24, 12},
      {1, 24},
  };
  obs::Counters counters;
  {
    const obs::ScopedSink sink(&counters);
    expect_parity(network, factory, flows);
  }
#if !defined(PR_OBS_DISABLED)
  // Seven flows join per batch, in each of expect_parity's four batches,
  // and the three that end in the drop at 16 end with its PR bit set.
  EXPECT_EQ(counters.get(obs::Counter::kForwardJoins), 4U * 7);
  EXPECT_EQ(counters.get(obs::Counter::kCycleFollowFlows), 4U * 3);
  EXPECT_LT(counters.get(obs::Counter::kForwardDecisions),
            counters.get(obs::Counter::kForwardHops) / 2);
#endif
}

/// Breaks the decision contract by reading packet.source: on the lollipop's
/// ring, walks from odd sources turn back at node 15.
class SourceReader final : public net::ForwardingProtocol {
 public:
  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net,
                                                graph::NodeId at,
                                                graph::DartId arrived_over,
                                                net::Packet& packet) override {
    if (at == 15 && packet.source % 2 == 1) {
      return net::ForwardingDecision::forward(graph::reverse(arrived_over));
    }
    return lollipop_.forward(net, at, arrived_over, packet);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "source-reader";
  }

 private:
  Lollipop lollipop_;
};

TEST(RouteBatchLog, CrossFlowContractBreachIsCaughtInDebugBuilds) {
  // 1 -> 22 reaches a state 0 -> 22 logged and would follow it past node
  // 15, where this protocol sends it elsewhere.  Debug builds re-decide
  // every followed hop and throw; a single walk has no other walk to follow
  // and matches the hop-by-hop walk in every build.
  const graph::Graph g = Lollipop::graph();
  const net::Network network(g);
  const std::vector<FlowSpec> flows = {{0, 22}, {1, 22}};
  SourceReader reference_proto;
  SourceReader walker;
  for (const FlowSpec& flow : flows) {
    const ReferenceWalk want = test_support::reference_walk(
        network, reference_proto, flow.source, flow.destination);
    const net::PathTrace got =
        net::route_packet(network, walker, flow.source, flow.destination);
    EXPECT_EQ(got.nodes, want.trace.nodes);
  }
#ifndef NDEBUG
  SourceReader batched;
  EXPECT_THROW((void)sim::route_batch(network, batched, flows), std::logic_error);
#endif
}

TEST(RouteBatchParity, EventSimulatorAgreesWithSharedCore) {
  // With static link state, a timed flight must land exactly where the
  // synchronous walk does: same status, hops, cost and node sequence.
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  net::Network network(g);
  network.fail_link(0);
  network.fail_link(3);

  for (const auto& factory : all_protocols(suite)) {
    const auto sync_proto = factory.make(network);
    const auto timed_proto = factory.make(network);
    for (graph::NodeId s = 0; s < g.node_count(); ++s) {
      for (graph::NodeId t = 0; t < g.node_count(); ++t) {
        if (s == t) continue;
        const auto expected = net::route_packet(network, *sync_proto, s, t);
        net::Simulator sim_driver;
        bool completed = false;
        net::launch_packet(sim_driver, network, *timed_proto, s, t, /*start=*/0.0,
                           [&](const net::PathTrace& trace) {
                             completed = true;
                             EXPECT_EQ(trace.status, expected.status);
                             EXPECT_EQ(trace.drop_reason, expected.drop_reason);
                             EXPECT_EQ(trace.hops, expected.hops);
                             EXPECT_DOUBLE_EQ(trace.cost, expected.cost);
                             EXPECT_EQ(trace.nodes, expected.nodes);
                           });
        sim_driver.run();
        EXPECT_TRUE(completed) << factory.name << " " << s << "->" << t;
      }
    }
  }
}

TEST(RouteBatch, ReusedResultBufferIsEquivalent) {
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  net::Network network(g);
  const auto flows = all_ordered_pairs(g);

  BatchResult reused;
  const auto first_proto = suite.pr().make(network);
  sim::route_batch(network, *first_proto, flows, TraceMode::kFullTrace, reused);
  const std::size_t first_delivered = reused.delivered_count();

  network.fail_link(2);
  const auto second_proto = suite.pr().make(network);
  sim::route_batch(network, *second_proto, flows, TraceMode::kStats, reused);
  EXPECT_EQ(reused.size(), flows.size());
  EXPECT_EQ(reused.mode(), TraceMode::kStats);
  EXPECT_TRUE(reused.darts(0).empty());

  network.restore_link(2);
  const auto third_proto = suite.pr().make(network);
  sim::route_batch(network, *third_proto, flows, TraceMode::kStats, reused);
  EXPECT_EQ(reused.delivered_count(), first_delivered);
}

TEST(RouteBatch, RejectsOutOfRangeEndpoints) {
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const net::Network network(g);
  const auto proto = suite.spf().make(network);
  const std::vector<FlowSpec> flows{FlowSpec{0, static_cast<graph::NodeId>(999)}};
  EXPECT_THROW((void)sim::route_batch(network, *proto, flows), std::out_of_range);
}

TEST(TraceRendering, DroppedTracesNameTheReason) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const route::RoutingDb routes(g);
  route::StaticSpf spf(routes);
  net::Network network(g);
  network.fail_link(0);

  const auto trace = net::route_packet(network, spf, 0, 2);
  EXPECT_FALSE(trace.delivered());
  const auto text = net::trace_to_string(g, trace);
  EXPECT_NE(text.find("DROPPED"), std::string::npos);
  EXPECT_NE(text.find(net::drop_reason_name(trace.drop_reason)), std::string::npos);

  EXPECT_EQ(net::drop_reason_name(net::DropReason::kNoRoute), "no-route");
  EXPECT_EQ(net::drop_reason_name(net::DropReason::kTtlExpired), "ttl-expired");
  EXPECT_EQ(net::drop_reason_name(net::DropReason::kPolicy), "policy");
  EXPECT_EQ(net::drop_reason_name(net::DropReason::kCongestion), "congestion");
}

}  // namespace
}  // namespace pr
