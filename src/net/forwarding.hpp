// The forwarding-protocol interface and the synchronous packet walker.
//
// Every compared scheme (plain SPF, Reconvergence, FCP, LFA, Packet
// Re-cycling) implements ForwardingProtocol: a purely local decision made at
// one router from (incoming interface, packet header, local state, local link
// status).  The walker `route_packet` drives a single packet hop by hop and
// records the trace; the discrete-event simulator drives the same interface
// with timing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"

namespace pr::net {

enum class DropReason : std::uint8_t {
  kNone = 0,
  kNoRoute,        ///< protocol has no usable next hop (e.g. FCP found no path)
  kTtlExpired,     ///< walker guard fired (disconnected destination or bug)
  kPolicy,         ///< protocol chose to discard (e.g. reconvergence window)
  kCongestion,     ///< interface transmit queue overflowed (event sim only)
};

struct ForwardingDecision {
  enum class Action : std::uint8_t { kForward, kDeliver, kDrop };
  Action action = Action::kDrop;
  /// Valid when action == kForward; must be an out-dart of the deciding node
  /// over a link that is currently up.
  DartId out_dart = graph::kInvalidDart;
  DropReason reason = DropReason::kNone;

  [[nodiscard]] static ForwardingDecision forward(DartId d) {
    return {Action::kForward, d, DropReason::kNone};
  }
  [[nodiscard]] static ForwardingDecision deliver() {
    return {Action::kDeliver, graph::kInvalidDart, DropReason::kNone};
  }
  [[nodiscard]] static ForwardingDecision drop(DropReason r) {
    return {Action::kDrop, graph::kInvalidDart, r};
  }
};

/// A routing scheme's per-router forwarding logic.  Implementations must obey
/// locality: decisions may depend only on the arguments (which include the
/// deciding node's view of its *incident* link state via `net`) and on state
/// installed before the failures occurred (routing / cycle-following tables).
///
/// The decision contract, precisely.  A decision may read `at`,
/// `arrived_over`, the header fields `destination`, `pr_bit`, `dd`,
/// `fcp_failures` and `traffic_class`, the link state, and tables installed
/// before the failures.  It must never read `packet.source`, `packet.ttl` or
/// `packet.id`.  Internal mutable state may memoize (FCP's LRU of SPF trees)
/// or count (PacketRecycling::termination_checks), but must never change a
/// decision.  So two flows with the same destination and traffic class that
/// reach the same (arrival dart, pr_bit, dd, fcp_failures) -- the arrival
/// dart implies `at` -- continue identically, whatever their sources, TTLs
/// or the flows routed in between.  sim::ForwardingEngine::run relies on
/// that across all the flows of one sim::route_batch call: it logs the hops
/// long walks decide, and a walk that reaches a logged state takes the
/// logged hops instead of calling forward() again.  Checks catch a breach:
/// a walk back at a state it logged itself decides its period once more and
/// throws std::logic_error if a decision differs, and Debug builds re-decide
/// every hop a walk takes from another walk's log.
/// Every shipped implementation complies, and none reads `source`:
/// StaticSpf, ReconvergedRouting, TimedReconvergence (its tables switch only
/// between walks, in the event simulator), LfaRouting, FcpRouting,
/// LinkStateIgp's data plane (likewise), PacketRecycling,
/// PolicyGatedRecycling, and the analysis suite's BorrowedProtocol and
/// PostConvergenceLfa adapters.
class ForwardingProtocol {
 public:
  virtual ~ForwardingProtocol() = default;

  /// Decides what router `at` does with `packet`, which arrived over
  /// `arrived_over` (kInvalidDart when `at` is the source).  May mutate the
  /// packet header (PR/DD bits, FCP failure list).
  [[nodiscard]] virtual ForwardingDecision forward(const Network& net, NodeId at,
                                                   DartId arrived_over,
                                                   Packet& packet) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

enum class DeliveryStatus : std::uint8_t { kDelivered, kDropped };

/// Everything a single packet experienced.
struct PathTrace {
  DeliveryStatus status = DeliveryStatus::kDropped;
  DropReason drop_reason = DropReason::kNone;
  /// Node visit sequence, starting at the source; for delivered packets the
  /// last entry is the destination.
  std::vector<NodeId> nodes;
  /// Sum of traversed link weights.
  double cost = 0.0;
  /// Number of links traversed (== nodes.size() - 1).
  std::uint32_t hops = 0;
  /// Header state at the end of the walk (DD bits, FCP list, ...).
  Packet final_packet;

  [[nodiscard]] bool delivered() const noexcept {
    return status == DeliveryStatus::kDelivered;
  }
};

/// Default TTL: generous multiple of the edge count so that correct protocols
/// never hit it while broken ones terminate.
[[nodiscard]] std::uint32_t default_ttl(const Graph& g) noexcept;

/// Stable lowercase name of a drop reason ("ttl-expired", "no-route", ...),
/// shared by trace rendering, the CLI and the examples.
[[nodiscard]] std::string_view drop_reason_name(DropReason r) noexcept;

/// "Seattle > Denver > KansasCity (delivered, 2 hops, cost 2)" rendering,
/// shared by the examples and the CLI.  Dropped packets include the reason:
/// "... (DROPPED after 3 hops: ttl-expired)".
[[nodiscard]] std::string trace_to_string(const Graph& g, const PathTrace& trace);

/// Drives one packet from `source` to `destination` under `protocol`.
/// `ttl` of 0 selects default_ttl(); `traffic_class` feeds Section-7 policy
/// gating.  Throws std::logic_error if the protocol violates the forwarding
/// contract (forwards over a down link or away from the deciding node).  A
/// walk that loops until the TTL guard replays its period from a walk log of
/// its own rather than calling the protocol at every hop
/// (sim::ForwardingEngine::run); the trace is the same as a hop-by-hop
/// walk's.
[[nodiscard]] PathTrace route_packet(const Network& net, ForwardingProtocol& protocol,
                                     NodeId source, NodeId destination,
                                     std::uint32_t ttl = 0,
                                     std::uint8_t traffic_class = 0);

}  // namespace pr::net
