// The allocation-free simulation core shared by every way of pushing packets
// through the library.
//
// Exactly one place implements the hop semantics -- terminal checks (delivery,
// TTL), the protocol decision, the forwarding-contract validation, and the
// cost/hop accounting: ForwardingEngine.  Three front-ends drive it:
//
//   * net::route_packet      -- the legacy synchronous single-packet walker,
//                               now a thin shim (net/forwarding.cpp);
//   * sim::route_batch       -- routes many flows with preallocated, reusable
//                               buffers; its stats-only mode never touches the
//                               heap per flow, which is what the coverage and
//                               stretch sweeps (millions of trials) need;
//   * net::launch_packet     -- the discrete-event simulator, which interleaves
//                               the same decide/commit steps with timing and
//                               queueing (net/event_sim.cpp).
//
// route_packet and route_batch run a flow through ForwardingEngine::run, which
// replays a looping walk's period instead of re-deciding it (see run()); the
// event simulator calls decide()/commit() once per hop, and that per-hop walk
// is the reference run() is tested against.  Every hop, replayed or not, goes
// through commit(), so a timed flight and a synchronous walk of the same flow
// can never disagree on status, hops or cost.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/forwarding.hpp"
#include "net/network.hpp"
#include "traffic/load_map.hpp"

namespace pr::sim {

using graph::DartId;
using graph::NodeId;
using net::DeliveryStatus;
using net::DropReason;
using net::ForwardingProtocol;
using net::Network;
using net::Packet;

/// Where a flow currently stands; the engine advances it hop by hop.
/// reset() recycles the contained Packet (keeping its FCP-list capacity), so
/// one FlowState can serve an arbitrarily long batch without reallocating.
struct FlowState {
  Packet packet;
  NodeId at = graph::kInvalidNode;
  DartId arrived_over = graph::kInvalidDart;
  double cost = 0.0;
  std::uint32_t hops = 0;

  void reset(NodeId source, NodeId destination, std::uint32_t ttl,
             std::uint8_t traffic_class = 0) {
    packet.source = source;
    packet.destination = destination;
    packet.pr_bit = false;
    packet.dd = 0;
    packet.fcp_failures.clear();  // keeps capacity for the next flow
    packet.ttl = ttl;
    packet.traffic_class = traffic_class;
    packet.id = 0;
    at = source;
    arrived_over = graph::kInvalidDart;
    cost = 0.0;
    hops = 0;
  }
};

/// Outcome of one ForwardingEngine::decide() call.
struct HopDecision {
  enum class Kind : std::uint8_t { kForward, kDelivered, kDropped };
  Kind kind = Kind::kDropped;
  /// Valid when kind == kForward; already contract-checked (leaves the current
  /// node over a link that is up).
  DartId out_dart = graph::kInvalidDart;
  /// Valid when kind == kDropped.
  DropReason reason = DropReason::kNone;
};

/// Terminal status of a completed flow.
struct FlowOutcome {
  DeliveryStatus status = DeliveryStatus::kDropped;
  DropReason reason = DropReason::kNone;
  /// Hops run() committed from a recorded period instead of a protocol
  /// decision; the flow's other hops were each decided.
  std::uint32_t replayed_hops = 0;
};

/// The single hop-execution core.  Cheap to construct (two pointers); holds no
/// per-flow state, so one engine can drive any number of concurrent flows.
class ForwardingEngine {
 public:
  /// Both referents must outlive the engine.
  ForwardingEngine(const Network& net, ForwardingProtocol& protocol) noexcept
      : net_(&net), protocol_(&protocol) {}

  /// Terminal checks + protocol decision + forwarding-contract validation for
  /// the next hop of `fs`.  May mutate the packet header (PR/DD bits, FCP
  /// list) but does not advance the flow; call commit() on a kForward result
  /// to take the hop.  Throws std::logic_error when the protocol violates the
  /// forwarding contract (delivers away from the destination, forwards from
  /// the wrong node, or forwards over a failed link).
  [[nodiscard]] HopDecision decide(FlowState& fs) const;

  /// Takes the hop chosen by decide(): cost/hop/TTL accounting, then moves the
  /// flow across `out`.
  void commit(FlowState& fs, DartId out) const;

  /// Runs `fs` to completion synchronously.  `on_visit` is invoked with each
  /// node the flow moves to (the source is already in `fs`, so it is not
  /// reported).  Statically dispatched so stats-only sweeps pay nothing for
  /// the hook.
  ///
  /// Period replay.  A decision reads only the flow's decision state (see
  /// DecisionState below), so once that state repeats, the walk repeats the
  /// same hops until the TTL guard drops it.  From hop kFirstMark on, run()
  /// watches for a repeat with Brent's algorithm: one compare per hop
  /// against a mark that moves to the current state at hops 8, 16, 32, ...
  /// When the state returns to the mark after lambda hops, run() decides one
  /// more period, recording its darts, and throws std::logic_error if the
  /// state does not come back (the protocol read something outside its
  /// contract).  It then commits floor(ttl / lambda) whole periods from the
  /// record without calling the protocol, and decides the last ttl mod
  /// lambda hops normally.
  ///
  /// Every hop, replayed or decided, goes through commit() and `on_visit`,
  /// so the sink sees each hop's position, dart, hop count, TTL and cost sum
  /// exactly as the hop-by-hop decide()/commit() walk produces them, which
  /// stays the reference.  The header (PR/DD bits, FCP list) is exact only
  /// when run() returns: during a replayed period it holds the state the
  /// period starts from.  No sink in the library reads it mid-walk.
  template <typename NodeSink>
  FlowOutcome run(FlowState& fs, NodeSink&& on_visit) const {
    while (true) {
      const HopDecision d = decide(fs);
      if (d.kind != HopDecision::Kind::kForward) return outcome_of(d, 0);
      commit(fs, d.out_dart);
      on_visit(fs.at);
      if (fs.hops >= kFirstMark) [[unlikely]] {
        return run_detecting(fs, on_visit);
      }
    }
  }

  FlowOutcome run(FlowState& fs) const {
    return run(fs, [](NodeId) {});
  }

  [[nodiscard]] const Network& network() const noexcept { return *net_; }
  [[nodiscard]] ForwardingProtocol& protocol() const noexcept { return *protocol_; }

 private:
  /// The part of a flow a protocol decision may read that changes along a
  /// walk (see net::ForwardingProtocol).  The node is implied: after a hop it
  /// is the head of arrived_over.
  struct DecisionState {
    DartId arrived_over = graph::kInvalidDart;
    bool pr_bit = false;
    std::uint32_t dd = 0;
    std::vector<graph::EdgeId> fcp_failures;

    /// arrived_over differs on almost every hop, so it is compared first and
    /// on its own (a wider load spanning it and the node would stall on the
    /// two narrower stores commit() just made).
    [[nodiscard]] bool matches(const FlowState& fs) const noexcept {
      return fs.arrived_over == arrived_over && fs.packet.pr_bit == pr_bit &&
             fs.packet.dd == dd && fs.packet.fcp_failures == fcp_failures;
    }

    void assign(const FlowState& fs) {
      arrived_over = fs.arrived_over;
      pr_bit = fs.packet.pr_bit;
      dd = fs.packet.dd;
      fcp_failures = fs.packet.fcp_failures;  // allocates only for FCP lists
    }
  };

  /// Hops a walk takes before run() starts watching for a repeated state:
  /// shorter walks, which most delivered walks are, pay one compare per hop.
  static constexpr std::uint32_t kFirstMark = 8;

  /// The rest of run() for a walk that reached kFirstMark hops.  Out of line
  /// so that run()'s loop compiles as tight as a plain decide/commit loop.
  template <typename NodeSink>
  [[gnu::noinline]] FlowOutcome run_detecting(FlowState& fs, NodeSink& on_visit) const {
    HopDecision last;
    const auto step = [&] {
      last = decide(fs);
      if (last.kind != HopDecision::Kind::kForward) return false;
      commit(fs, last.out_dart);
      on_visit(fs.at);
      return true;
    };

    // Brent's algorithm: decide hop by hop until the state returns to the
    // mark, which moves to the current state whenever the hops since it
    // reach the next power of two.
    DecisionState mark;
    mark.assign(fs);
    std::uint32_t lambda = 0;  // hops since the mark moved
    for (std::uint64_t power = kFirstMark;;) {
      if (!step()) return outcome_of(last, 0);
      ++lambda;
      if (mark.matches(fs)) break;
      if (lambda == power) {
        mark.assign(fs);
        power *= 2;
        lambda = 0;
      }
    }

    // The walk is periodic with period lambda: decide one period to record it.
    std::vector<DartId> period;
    period.reserve(lambda);
    for (std::uint32_t i = 0; i < lambda; ++i) {
      if (!step()) return outcome_of(last, 0);
      period.push_back(last.out_dart);
    }
    if (!mark.matches(fs)) {
      throw std::logic_error(
          "ForwardingEngine: a repeated decision state led to different hops "
          "(the protocol reads state outside the ForwardingProtocol contract)");
    }

    // Replay whole periods, then decide the last ttl mod lambda hops; the TTL
    // guard then drops the flow.
    const std::uint32_t periods = fs.packet.ttl / lambda;
    for (std::uint32_t p = 0; p < periods; ++p) {
      for (const DartId dart : period) {
        commit(fs, dart);
        on_visit(fs.at);
      }
    }
    while (step()) {
    }
    return outcome_of(last, periods * lambda);
  }

  static FlowOutcome outcome_of(const HopDecision& d, std::uint32_t replayed_hops) {
    if (d.kind == HopDecision::Kind::kDelivered) {
      return {DeliveryStatus::kDelivered, DropReason::kNone, replayed_hops};
    }
    return {DeliveryStatus::kDropped, d.reason, replayed_hops};
  }

  const Network* net_;
  ForwardingProtocol* protocol_;
};

/// How much per-flow evidence route_batch keeps.
enum class TraceMode : std::uint8_t {
  kStats,      ///< delivery status / drop reason / hops / cost only; no per-flow
               ///< heap traffic at all once the result buffers are warm
  kFullTrace,  ///< additionally record every flow's node and dart sequences
               ///< (flattened)
};

/// One (source, destination) trial of a sweep.
struct FlowSpec {
  NodeId source = graph::kInvalidNode;
  NodeId destination = graph::kInvalidNode;
  std::uint32_t ttl = 0;  ///< 0 selects net::default_ttl()
  std::uint8_t traffic_class = 0;
};

/// What one flow experienced (the stats-mode subset of net::PathTrace).
struct FlowStats {
  DeliveryStatus status = DeliveryStatus::kDropped;
  DropReason drop_reason = DropReason::kNone;
  std::uint32_t hops = 0;
  double cost = 0.0;

  [[nodiscard]] bool delivered() const noexcept {
    return status == DeliveryStatus::kDelivered;
  }
};

/// Results of a route_batch call.  All storage is flat and reusable: pass the
/// same BatchResult to successive calls and, once warm, routing allocates
/// nothing.
class BatchResult {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return stats_.size(); }
  [[nodiscard]] std::span<const FlowStats> stats() const noexcept { return stats_; }
  [[nodiscard]] const FlowStats& operator[](std::size_t flow) const {
    return stats_.at(flow);
  }

  [[nodiscard]] TraceMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t delivered_count() const noexcept { return delivered_; }
  [[nodiscard]] std::size_t dropped_count() const noexcept {
    return stats_.size() - delivered_;
  }

  /// Node sequence of flow `flow` (source first).  Empty in stats mode.
  [[nodiscard]] std::span<const NodeId> nodes(std::size_t flow) const {
    if (mode_ == TraceMode::kStats) return {};
    return std::span<const NodeId>(nodes_).subspan(
        offsets_.at(flow), offsets_.at(flow + 1) - offsets_.at(flow));
  }

  /// Dart sequence of flow `flow` (the interfaces the flow actually crossed,
  /// in hop order -- exactly the darts the demand-weighted overload charges).
  /// Empty in stats mode.  A flow's dart count is its node count minus one,
  /// so the node fenceposts serve both views: darts of flow f start at
  /// offsets_[f] - f.
  [[nodiscard]] std::span<const DartId> darts(std::size_t flow) const {
    if (mode_ == TraceMode::kStats) return {};
    const std::size_t begin = offsets_.at(flow) - flow;
    const std::size_t end = offsets_.at(flow + 1) - (flow + 1);
    return std::span<const DartId>(darts_).subspan(begin, end - begin);
  }

  /// Empties the result but keeps every buffer's capacity.
  void clear() noexcept {
    stats_.clear();
    nodes_.clear();
    darts_.clear();
    offsets_.clear();
    delivered_ = 0;
  }

 private:
  friend void route_batch(const Network&, ForwardingProtocol&,
                          std::span<const FlowSpec>, TraceMode, BatchResult&);
  friend void route_batch(const Network&, ForwardingProtocol&,
                          std::span<const FlowSpec>, std::span<const double>,
                          traffic::LoadMap&, TraceMode, BatchResult&);

  std::vector<FlowStats> stats_;
  std::vector<NodeId> nodes_;         // full-trace mode: all sequences, flattened
  std::vector<DartId> darts_;         // full-trace mode: hops taken, flattened
  std::vector<std::size_t> offsets_;  // full-trace mode: size()+1 fenceposts
  std::size_t delivered_ = 0;
  TraceMode mode_ = TraceMode::kStats;
};

/// All ordered (source, destination) pairs of `g` -- the standard sweep
/// work-list used by the CLI summary, the coverage benches and the parity
/// tests.
[[nodiscard]] std::vector<FlowSpec> all_pairs_flows(const graph::Graph& g);

/// Routes every flow of `flows` under `protocol`, in order, reusing one
/// FlowState throughout.  Flows see the protocol instance sequentially, so a
/// stateful protocol (e.g. FCP's SPF cache) behaves exactly as if the legacy
/// route_packet had been called once per flow.  Throws std::out_of_range if
/// any endpoint is not a node of the network's graph.
void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, TraceMode mode, BatchResult& out);

[[nodiscard]] BatchResult route_batch(const Network& net, ForwardingProtocol& protocol,
                                      std::span<const FlowSpec> flows,
                                      TraceMode mode = TraceMode::kStats);

/// Demand-weighted variant: flow f additionally contributes demands[f] packets
/// per second of offered load to every dart it traverses -- including the
/// partial path of a dropped flow, whose packets occupy real transmitters
/// before being lost.  `load` is reset to this batch's load (sized for the
/// network's graph; capacity is reused, so the hot loop stays allocation-free
/// once warm).  Routing outcomes in `out` are identical to the plain overload.
/// Throws std::invalid_argument when demands.size() != flows.size().
void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, std::span<const double> demands,
                 traffic::LoadMap& load, TraceMode mode, BatchResult& out);

}  // namespace pr::sim
