// Packet Re-cycling forwarding (paper Sections 4.2 and 4.3) -- the core
// contribution.
//
// Normal operation is plain shortest-path forwarding.  When the chosen
// out-interface is down, the detecting router marks the packet (PR bit),
// stamps its own distance discriminator into the DD bits, and diverts the
// packet onto the complementary cycle of the failed interface.  Marked
// packets are forwarded by cycle-following tables (keyed on the incoming
// interface) instead of routing tables.  When a marked packet meets another
// failed interface, the router compares its own discriminator with the DD
// bits:
//
//   own < DD  ->  clear the PR bit and resume shortest-path forwarding
//   own >= DD ->  continue on the complementary cycle of the failed interface
//
// Two variants are provided:
//   kSingleBit (4.2):  no DD bits; a marked packet meeting a failure always
//                      resumes shortest-path routing.  Guarantees single-
//                      failure recovery in 2-edge-connected networks but can
//                      loop under failure combinations (the walker's TTL then
//                      expires; the coverage bench quantifies this).
//   kDistanceDiscriminator (4.3): full protocol.  The paper claims delivery
//                      whenever source and destination stay connected; the
//                      tests find no reachable packet dropped on genus-0
//                      embeddings.  With handles PR can drop some even when
//                      PR-safe: pr_property_test's NonPlanarLivelock (genus
//                      5); integration_test requires drops on Teleglobe
//                      (genus 1).  A self-paired link is one cause of drops;
//                      having none is necessary, not sufficient.  ROADMAP.md's
//                      face-dual item proposes a rule for the rest (unproven).
#pragma once

#include <cstdint>

#include "core/cycle_table.hpp"
#include "net/forwarding.hpp"
#include "route/routing_db.hpp"

namespace pr::core {

enum class PrVariant : std::uint8_t {
  kSingleBit,              ///< Section 4.2: PR bit only
  kDistanceDiscriminator,  ///< Section 4.3: PR bit + DD bits
};

class PacketRecycling final : public net::ForwardingProtocol {
 public:
  /// `routes` are the pristine-topology tables (with the discriminator
  /// column); `cycles` the embedding-derived cycle-following tables.  Both
  /// must outlive the protocol.  Nothing is ever recomputed at forwarding
  /// time -- the protocol's key property.
  PacketRecycling(const route::RoutingDb& routes, const CycleFollowingTable& cycles,
                  PrVariant variant = PrVariant::kDistanceDiscriminator);

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net,
                                                graph::NodeId at,
                                                graph::DartId arrived_over,
                                                net::Packet& packet) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return variant_ == PrVariant::kSingleBit ? "pr-1bit" : "pr";
  }

  [[nodiscard]] PrVariant variant() const noexcept { return variant_; }

  /// Failure encounters that triggered the termination comparison; exposed so
  /// tests can assert protocol dynamics.  Counts only decisions actually
  /// made: sim::ForwardingEngine::run takes hops from its walk log without
  /// calling forward() -- most of a walk that loops until the TTL guard, and
  /// in a route_batch call whatever a flow follows of an earlier flow's
  /// walk -- so encounters there are not counted.
  [[nodiscard]] std::uint64_t termination_checks() const noexcept {
    return termination_checks_;
  }

 private:
  const route::RoutingDb* routes_;
  const CycleFollowingTable* cycles_;
  PrVariant variant_;
  std::uint64_t termination_checks_ = 0;
};

}  // namespace pr::core
