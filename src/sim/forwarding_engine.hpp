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
//                               heap per flow, which is what the affected-pair
//                               stretch sweep (millions of trials) needs;
//   * net::launch_packet     -- the discrete-event simulator, which interleaves
//                               the same decide/commit steps with timing and
//                               queueing (net/event_sim.cpp).
//
// route_packet and route_batch run a flow through ForwardingEngine::run, which
// logs the hops of long walks in a WalkLog and takes a hop from the log
// instead of re-deciding it when a walk returns to a state the log holds (see
// run()); the event simulator calls decide()/commit() once per hop, and that
// per-hop walk is the reference run() is tested against.
#pragma once

#include <cstdint>
#include <span>
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
  /// Hops run() took from the walk log instead of a protocol decision; the
  /// flow's other hops were each decided.
  std::uint32_t replayed_hops = 0;
  /// The walk followed hops another walk of the same log decided.
  bool joined = false;
};

/// The decided hops of the walks one route_batch or route_packet call has
/// run, indexed by the decision state each hop was decided from.
///
/// A decision reads only the flow's decision state -- destination, traffic
/// class, arrival dart (which implies the node), PR bit, DD bits and FCP list
/// (see net::ForwardingProtocol) -- so a state the log holds fixes the hop
/// decided from it, whichever walk of the call reaches it.  From its
/// kLogFrom-th hop on, a walk appends every hop it decides: the dart and the
/// header after the decision, or the drop reason when the protocol dropped
/// the packet.  The state a hop leads to is its own dart plus that header, so
/// an entry is indexed by its predecessor's and no key is copied.  Each
/// stretch a walk logs starts with a seed entry holding the state the stretch
/// starts from; seeds are never indexed, and the entry after a hop is its
/// successor unless it is a seed.
///
/// Not thread-safe; one log serves one walk at a time.  Warm, it allocates
/// nothing: clear() keeps every buffer's capacity.
class WalkLog {
 public:
  /// A walk logs from its kLogFrom-th hop on; shorter walks, which most
  /// delivered walks are, never touch the log.
  static constexpr std::uint32_t kLogFrom = 8;

  /// Sentinel entry index.
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFU;

  /// Empties the log and its index but keeps every buffer's capacity.
  void clear() noexcept;

  /// Entries held: seeds, decided hops and drops.
  [[nodiscard]] std::size_t size() const noexcept { return darts_.size(); }

  /// Result of find(): the entry decided from the probed state (kNone if the
  /// log holds none), plus what append_hop()/append_drop() need to index a
  /// new entry under that state.
  struct Probe {
    std::uint32_t entry = kNone;
    std::uint32_t slot = 0;
    std::uint64_t hash = 0;
  };

  /// Looks up the decision state of `fs` (a walk past its first hop).
  [[nodiscard]] Probe find(const FlowState& fs) const;

  /// Starts a stretch at the state of `fs`; returns the seed's index.
  std::uint32_t open_stretch(const FlowState& fs);

  /// Appends the hop `out` decided from the probed state, with the header of
  /// `fs` after the decision.  Call only while a stretch is open and the
  /// probed state is the state it reached.
  void append_hop(const Probe& probe, DartId out, const FlowState& fs);

  /// Appends the drop decided from the probed state, with the header of `fs`
  /// after the decision.  Ends the stretch.
  void append_drop(const Probe& probe, DropReason reason, const FlowState& fs);

  /// The darts of the `count` entries from `begin` on: the hop taken (for a
  /// seed, the dart the walk arrived over).
  [[nodiscard]] std::span<const DartId> darts(std::uint32_t begin,
                                              std::uint32_t count) const noexcept {
    return std::span<const DartId>(darts_).subspan(begin, count);
  }

  /// Number of consecutive hops from entry `begin` on, at most `limit`: the
  /// run stops before a seed, a drop or the end of the log.
  [[nodiscard]] std::uint32_t run_length(std::uint32_t begin, std::uint32_t limit) const;

  [[nodiscard]] bool is_drop(std::uint32_t entry) const noexcept {
    return entry < size() && (states_[entry].flags & kDrop) != 0;
  }
  [[nodiscard]] DropReason drop_reason(std::uint32_t entry) const noexcept {
    return static_cast<DropReason>(states_[entry].flags >> kReasonShift);
  }

  /// Sets the PR bit, DD bits and FCP list of `packet` to the header after
  /// entry `entry`.
  void restore_header(std::uint32_t entry, Packet& packet) const;

  /// Whether `packet` carries the header after entry `entry`.
  [[nodiscard]] bool header_matches(std::uint32_t entry, const Packet& packet) const;

 private:
  /// The header after an entry, plus the walk's identity (which, with its
  /// predecessor's dart and header, forms the state the entry is keyed by).
  struct State {
    std::uint32_t dd = 0;
    std::uint32_t fcp = 0;  ///< 1 + offset of the FCP list in fcp_pool_; 0 = empty
    NodeId destination = graph::kInvalidNode;
    std::uint8_t traffic_class = 0;
    std::uint8_t flags = 0;  ///< kPrBit | kSeed | kDrop | reason << kReasonShift
  };
  static constexpr std::uint8_t kPrBit = 1;
  static constexpr std::uint8_t kSeed = 2;
  static constexpr std::uint8_t kDrop = 4;
  static constexpr unsigned kReasonShift = 3;

  static std::uint64_t hash_of(const FlowState& fs) noexcept;
  [[nodiscard]] std::span<const graph::EdgeId> fcp_list(std::uint32_t fcp) const;
  [[nodiscard]] bool keyed_by(std::uint32_t entry, const FlowState& fs) const;
  [[nodiscard]] std::uint64_t key_hash(std::uint32_t entry) const;
  void push_entry(DartId dart, const FlowState& fs, std::uint8_t flags);
  void index(const Probe& probe);
  void grow_index();

  // One element per entry in each; the trace sinks copy darts out of the
  // first in bulk.
  std::vector<DartId> darts_;
  std::vector<State> states_;
  /// FCP lists of logged headers, each stored as its length then its edges.
  std::vector<graph::EdgeId> fcp_pool_;
  /// Open-addressed index over the non-seed entries, linear probing: each
  /// slot holds (hash tag << 32) | (entry + 1), or 0 when empty.  Only the
  /// first index_mask_ + 1 slots are in use; 0 means none this call.
  std::vector<std::uint64_t> index_;
  std::uint32_t index_mask_ = 0;
  std::uint32_t indexed_ = 0;
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

  /// Runs `fs` to completion synchronously, sharing `log` with the other
  /// walks run on it (route_batch clears it once per call).  `sink` is told
  /// about every hop the flow takes, in walk order: sink.hop(fs) after each
  /// decided hop (fs.at and fs.arrived_over are the node reached and the dart
  /// crossed), and sink.span(darts, laps) for hops taken from the log in one
  /// go: the logged darts, `laps` times over, each leading to its head.  The
  /// source is already in `fs`, so it is not reported.
  ///
  /// The walk log.  Walks shorter than WalkLog::kLogFrom hops are a plain
  /// decide/commit loop.  From that hop on, run() looks the walk's decision
  /// state up in the log before each decision and appends every hop it
  /// decides.  When the lookup finds an entry:
  ///   * the walk logged it itself in its current stretch: the walk has found
  ///     its period.  It decides the period once more, throwing
  ///     std::logic_error if a decision differs from the logged one (the
  ///     protocol reads something outside its contract), then takes whole
  ///     periods and the remainder from the log until the TTL guard drops it;
  ///   * another walk logged it: the walk follows that walk's hops to where
  ///     that walk ended -- delivered, dropped with its reason, around its
  ///     period until the TTL guard, or back to deciding where that walk was
  ///     cut short by its own TTL.  Debug builds re-decide every followed hop
  ///     and throw std::logic_error on a mismatch.
  ///
  /// A hop taken from the log never calls the protocol.  Its cost is still
  /// added hop by hop in walk order, so the cost sum, hops, TTL, darts, final
  /// header and drop reason equal the hop-by-hop decide()/commit() walk bit
  /// for bit, which stays the reference.  The header is exact only when run()
  /// returns: during a taken stretch it may still hold the state the stretch
  /// starts from.
  template <typename Sink>
  FlowOutcome run(FlowState& fs, WalkLog& log, Sink& sink) const {
    while (true) {
      const HopDecision d = decide(fs);
      if (d.kind != HopDecision::Kind::kForward) return outcome_of(d);
      commit(fs, d.out_dart);
      sink.hop(fs);
      if (fs.hops + 1 >= WalkLog::kLogFrom) [[unlikely]] {
        return run_logged(fs, log, SinkRef(sink));
      }
    }
  }

  [[nodiscard]] const Network& network() const noexcept { return *net_; }
  [[nodiscard]] ForwardingProtocol& protocol() const noexcept { return *protocol_; }

 private:
  /// A type-erased reference to run()'s sink, so the logged part of a walk
  /// compiles once, out of line, and run()'s loop stays as tight as a plain
  /// decide/commit loop.
  class SinkRef {
   public:
    template <typename Sink>
    explicit SinkRef(Sink& sink) noexcept
        : self_(&sink),
          hop_([](void* s, const FlowState& fs) { static_cast<Sink*>(s)->hop(fs); }),
          span_([](void* s, std::span<const DartId> darts, std::uint32_t laps) {
            static_cast<Sink*>(s)->span(darts, laps);
          }) {}

    void hop(const FlowState& fs) const { hop_(self_, fs); }
    void span(std::span<const DartId> darts, std::uint32_t laps) const {
      span_(self_, darts, laps);
    }

   private:
    void* self_;
    void (*hop_)(void*, const FlowState&);
    void (*span_)(void*, std::span<const DartId>, std::uint32_t);
  };

  /// The rest of run() for a walk that has taken kLogFrom - 1 hops.
  FlowOutcome run_logged(FlowState& fs, WalkLog& log, SinkRef sink) const;

  /// Moves `fs` `laps` times over the `count` logged hops from entry `begin`
  /// on (a lap ends where it starts unless laps is 1) and hands them to
  /// `sink` in one call.
  void take(FlowState& fs, const WalkLog& log, std::uint32_t begin, std::uint32_t count,
            std::uint32_t laps, const SinkRef& sink) const;

  /// Takes whole laps of the logged cycle [begin, end) and then the
  /// remainder, until the TTL runs out.  Returns the hops taken.
  std::uint32_t take_cycle(FlowState& fs, const WalkLog& log, std::uint32_t begin,
                           std::uint32_t end, const SinkRef& sink) const;

  /// Re-decides, on a copy of `fs`, the `count` logged hops from entry
  /// `begin` on, and the drop after them if `then_drop`; throws
  /// std::logic_error if the protocol decides any of them differently.
  void recheck(const FlowState& fs, const WalkLog& log, std::uint32_t begin,
               std::uint32_t count, bool then_drop) const;

  static FlowOutcome outcome_of(const HopDecision& d) {
    if (d.kind == HopDecision::Kind::kDelivered) {
      return {DeliveryStatus::kDelivered, DropReason::kNone};
    }
    return {DeliveryStatus::kDropped, d.reason};
  }

  const Network* net_;
  ForwardingProtocol* protocol_;
};

/// How much per-flow evidence route_batch keeps.
enum class TraceMode : std::uint8_t {
  kStats,      ///< delivery status / drop reason / hops / cost only; no per-flow
               ///< heap traffic at all once the result buffers are warm
  kFullTrace,  ///< additionally record every flow's dart sequence (flattened);
               ///< its nodes are the source and the darts' heads
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

  /// Dart sequence of flow `flow` (the interfaces the flow actually crossed,
  /// in hop order -- exactly the darts the demand-weighted overload charges).
  /// The flow's node sequence is its source followed by the darts' heads.
  /// Empty in stats mode.
  [[nodiscard]] std::span<const DartId> darts(std::size_t flow) const {
    if (mode_ == TraceMode::kStats) return {};
    return std::span<const DartId>(darts_).subspan(
        offsets_.at(flow), offsets_.at(flow + 1) - offsets_.at(flow));
  }

  /// Empties the result but keeps every buffer's capacity.
  void clear() noexcept {
    stats_.clear();
    darts_.clear();
    offsets_.clear();
    log_.clear();
    delivered_ = 0;
  }

 private:
  friend void route_batch(const Network&, ForwardingProtocol&,
                          std::span<const FlowSpec>, TraceMode, BatchResult&);
  friend void route_batch(const Network&, ForwardingProtocol&,
                          std::span<const FlowSpec>, std::span<const double>,
                          traffic::LoadMap&, TraceMode, BatchResult&);

  std::vector<FlowStats> stats_;
  std::vector<DartId> darts_;         // full-trace mode: hops taken, flattened
  std::vector<std::size_t> offsets_;  // full-trace mode: size()+1 fenceposts
  WalkLog log_;                       // the walk log of the last call
  std::size_t delivered_ = 0;
  TraceMode mode_ = TraceMode::kStats;
};

/// All ordered (source, destination) pairs of `g` -- the standard sweep
/// work-list used by the CLI summary, the coverage benches and the parity
/// tests.
[[nodiscard]] std::vector<FlowSpec> all_pairs_flows(const graph::Graph& g);

/// Routes every flow of `flows` under `protocol`, in order, reusing one
/// FlowState throughout.  The flows share one walk log (see
/// ForwardingEngine::run), so a flow that reaches a decision state an earlier
/// flow of the call logged follows that flow's hops without calling the
/// protocol.  Results are exactly those of calling route_packet once per
/// flow, but a stateful protocol may see fewer forward() calls: FCP's SPF
/// memo fills and PacketRecycling::termination_checks() can drop.  Throws
/// std::out_of_range if any endpoint is not a node of the network's graph.
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
