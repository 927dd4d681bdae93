// Event-driven link-state IGP convergence (OSPF-flavoured).
//
// The paper's "Re-convergence" baseline is the full routing-protocol machinery:
// failure detection, LSA flooding, throttled SPF recomputation and FIB update,
// during which packets are lost at the failure point and -- because routers
// update at different instants -- transient micro-loops can form.  This module
// models that process per router on the discrete-event simulator:
//
//   t0        link fails
//   +detection     adjacent routers notice and originate LSAs
//   flooding       LSAs propagate hop by hop over live links
//                  (link propagation delay + per-router processing)
//   +spf_delay     each router recomputes its table spf_delay after it first
//                  learns of a change (SPF throttle + FIB update)
//
// Restores are not modelled (the experiments fail links, measure, reset),
// which matches how the paper's loss window is defined.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/event_sim.hpp"
#include "net/forwarding.hpp"
#include "route/routing_db.hpp"
#include "route/scenario_cache.hpp"

namespace pr::route {

class LinkStateIgp {
 public:
  struct Timings {
    net::SimTime detection_delay = 50e-3;  ///< carrier loss / BFD interval
    net::SimTime lsa_processing = 1e-3;    ///< per-router LSA handling
    net::SimTime spf_delay = 100e-3;       ///< SPF throttle + FIB update
  };

  /// `sim` and `network` must outlive the IGP, and the network's graph must
  /// not be mutated while it lives (the FIB is sized at construction; a
  /// recompute after a mutation throws std::logic_error).  All routers start
  /// with tables computed on the pristine topology.
  LinkStateIgp(net::Simulator& sim, net::Network& network, Timings timings);
  LinkStateIgp(net::Simulator& sim, net::Network& network);

  LinkStateIgp(const LinkStateIgp&) = delete;
  LinkStateIgp& operator=(const LinkStateIgp&) = delete;
  ~LinkStateIgp();

  /// Tells the IGP that `e` just failed (call right after Network::fail_link;
  /// detection and flooding unfold from sim.now()).
  void on_link_failure(graph::EdgeId e);

  /// The data-plane view: forwards with each router's CURRENT table; packets
  /// meeting a failed link at a stale router are dropped (kPolicy), and
  /// table inconsistencies can micro-loop until the walker TTL fires.
  [[nodiscard]] net::ForwardingProtocol& protocol() noexcept;

  /// True when router `v`'s table reflects every failure injected so far.
  [[nodiscard]] bool converged(graph::NodeId v) const;
  /// True when every router has converged.
  [[nodiscard]] bool fully_converged() const;

  /// Total LSA messages transmitted (the flooding overhead the paper contrasts
  /// with PR's zero signalling).
  [[nodiscard]] std::uint64_t lsa_messages() const noexcept { return lsa_messages_; }
  /// Simulation time of the most recent table update.
  [[nodiscard]] net::SimTime last_table_update() const noexcept {
    return last_update_;
  }
  /// SPF recomputations performed across all routers.
  [[nodiscard]] std::uint64_t spf_runs() const noexcept { return spf_runs_; }

  /// Total allocator footprint of the routing state: the cache's db (live
  /// columns + pristine snapshot + rebuild indices) plus the n x n FIB.  The
  /// number bench_router_memory compares against giving every router a full
  /// RoutingDb copy (O(n^3)).
  [[nodiscard]] std::size_t table_bytes() const noexcept;

 private:
  class Forwarding;

  /// Router `v` learns that `e` failed (via detection or an LSA).
  void learn(graph::NodeId v, graph::EdgeId e);
  void flood_from(graph::NodeId v, graph::EdgeId e);
  void schedule_recompute(graph::NodeId v);
  /// Copies router `v`'s row out of `tables` into the FIB.
  void install_row(const RoutingDb& tables, graph::NodeId v);

  net::Simulator* sim_;
  net::Network* network_;
  Timings timings_;

  /// Per-router link-state database (known failed edges), and the routing
  /// state: ONE cache whose db is delta-rebuilt to a recomputing router's
  /// known-failure set (memoised by the cache, so routers converging on the
  /// same knowledge share one repair), out of which the router copies its own
  /// row into the FIB.  A router's data plane reads only its row, so this
  /// forwards exactly like n full RoutingDb copies at O(n^2) instead of
  /// O(n^3) bytes.  One cache serves every router because the event
  /// simulator is single-threaded.
  std::vector<graph::EdgeSet> known_failures_;
  ScenarioRoutingCache cache_;
  /// The cache's db: the same object on every call, since the graph and the
  /// discriminator kind never change.
  const RoutingDb* tables_ = nullptr;
  std::size_t node_count_ = 0;
  /// Router-major FIB: fib_[v * node_count_ + t] is router v's next dart
  /// toward t, as of v's last recompute.
  std::vector<graph::DartId> fib_;
  std::vector<std::uint8_t> recompute_pending_;
  std::size_t injected_failures_ = 0;

  std::unique_ptr<Forwarding> protocol_;
  std::uint64_t lsa_messages_ = 0;
  std::uint64_t spf_runs_ = 0;
  net::SimTime last_update_ = 0;
};

}  // namespace pr::route
