// Loop-Free Alternates (RFC 5286), the paper's reference [2] and the most
// widely deployed IPFRR mechanism.  Included as an extra baseline for the
// coverage ablation (A2): LFA protects only those (router, destination)
// pairs that happen to have a loop-free neighbour, so its repair coverage is
// strictly partial -- exactly the gap PR closes.
//
// A neighbour n of router v is a loop-free alternate for destination t iff
//     dist(n, t) < dist(n, v) + dist(v, t)
// (the link-protection inequality: n's shortest path to t cannot return
// through v, hence cannot use the failed link v->next).  The stronger
// node-protecting variant additionally requires
//     dist(n, t) < dist(n, p) + dist(p, t)
// where p is the primary next hop, so the alternate also avoids p itself --
// fewer alternates, but they survive router (not just link) outages.
#pragma once

#include <vector>

#include "net/forwarding.hpp"
#include "route/routing_db.hpp"

namespace pr::route {

enum class LfaKind : std::uint8_t {
  kLinkProtecting,  ///< RFC 5286 basic inequality
  kNodeProtecting,  ///< + avoids the primary next-hop router
};

class LfaRouting final : public net::ForwardingProtocol {
 public:
  /// Precomputes primary next hops and the best (lowest alternate-path cost)
  /// loop-free alternate per (router, destination).  `routes` must outlive
  /// the protocol and keep its current tables while the protocol is used:
  /// the alternates are derived once, from the scenario those tables hold at
  /// construction (pristine for the classic variants, converged for the
  /// post-convergence one).
  explicit LfaRouting(const RoutingDb& routes,
                      LfaKind kind = LfaKind::kLinkProtecting);

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, NodeId at,
                                                DartId arrived_over,
                                                net::Packet& packet) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return kind_ == LfaKind::kLinkProtecting ? "lfa" : "lfa-node-protecting";
  }

  [[nodiscard]] LfaKind kind() const noexcept { return kind_; }

  /// Fraction of (router, destination) pairs with at least one loop-free
  /// alternate -- RFC 5286's classic coverage metric.
  [[nodiscard]] double alternate_coverage() const;

  /// The precomputed alternate for a pair (kInvalidDart when none exists).
  [[nodiscard]] DartId alternate(NodeId at, NodeId dest) const {
    return alternate_[index(at, dest)];
  }

 private:
  [[nodiscard]] std::size_t index(NodeId at, NodeId dest) const {
    return static_cast<std::size_t>(at) * routes_->graph().node_count() + dest;
  }

  /// The best alternate for one pair (kInvalidDart when none / self /
  /// unreachable).
  [[nodiscard]] DartId compute_pair(const Graph& g, NodeId v, NodeId dest) const;

  const RoutingDb* routes_;
  LfaKind kind_;
  std::vector<DartId> alternate_;
};

}  // namespace pr::route
