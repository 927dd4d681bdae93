// The "Re-convergence" baseline of the paper's Figure 2.
//
// After a routing protocol reconverges, packets follow the true shortest
// paths of the surviving topology -- the optimal repair any scheme could
// achieve, bought at the cost of the convergence outage.  Two forms:
//
//  * ReconvergedRouting: the steady state after convergence, used for the
//    stretch comparison (its stretch CCDF lower-bounds FCP and PR).
//  * TimedReconvergence: pre-convergence packets behave like StaticSpf
//    (dropped at the failure); once `complete_convergence()` is called (the
//    bench schedules it at detection + convergence delay), forwarding flips
//    to the reconverged tables.  Used by the loss experiment E11.
#pragma once

#include <memory>
#include <optional>

#include "net/forwarding.hpp"
#include "route/routing_db.hpp"

namespace pr::route {

class ReconvergedRouting final : public net::ForwardingProtocol {
 public:
  /// Computes post-convergence tables for the failure set currently installed
  /// in `net`.  The network's failure set must not change afterwards (build a
  /// new instance per scenario).
  explicit ReconvergedRouting(const net::Network& net,
                              DiscriminatorKind kind = DiscriminatorKind::kHops);

  /// Borrows `shared` as the post-convergence tables instead of computing
  /// them -- the sweep drivers pass delta-repaired tables from a per-worker
  /// ScenarioRoutingCache here.  `shared` must reflect the network's current
  /// failure set and outlive this instance.
  ReconvergedRouting(const net::Network& net, const RoutingDb& shared);

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, NodeId at,
                                                DartId arrived_over,
                                                net::Packet& packet) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "reconvergence";
  }

  [[nodiscard]] const RoutingDb& tables() const noexcept { return *routes_; }

 private:
  std::unique_ptr<RoutingDb> owned_;  ///< null when borrowing shared tables
  const RoutingDb* routes_;
};

class TimedReconvergence final : public net::ForwardingProtocol {
 public:
  /// `before` are the pristine tables; `net` and `before` must outlive this
  /// instance.
  TimedReconvergence(const net::Network& net, const RoutingDb& before);

  /// Switches every router to a ReconvergedRouting over the network's
  /// failure set of this moment (the bench schedules this at failure time +
  /// detection + SPF computation + FIB update).
  void complete_convergence();

  [[nodiscard]] bool converged() const noexcept { return after_.has_value(); }

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, NodeId at,
                                                DartId arrived_over,
                                                net::Packet& packet) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "timed-reconvergence";
  }

 private:
  const net::Network* net_;
  const RoutingDb* before_;
  std::optional<ReconvergedRouting> after_;
};

}  // namespace pr::route
