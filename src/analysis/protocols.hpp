// Pre-wired protocol suite shared by benches, examples and integration tests.
//
// Owns everything a comparison needs exactly once per topology: the pristine
// routing tables (with the PR discriminator column), the offline cellular
// embedding and the cycle-following tables derived from it.  Factories hand
// out per-scenario protocol instances wired to that shared state.
#pragma once

#include <vector>

#include "analysis/stretch.hpp"
#include "core/cycle_table.hpp"
#include "core/pr_protocol.hpp"
#include "embed/embedder.hpp"
#include "route/fcp.hpp"
#include "route/lfa.hpp"
#include "route/reconvergence.hpp"
#include "route/routing_db.hpp"
#include "route/static_spf.hpp"

namespace pr::analysis {

/// Owns the per-topology state; factories hand out thin protocol instances
/// that reference it, so the suite must outlive every experiment that uses
/// its factories.
class ProtocolSuite {
 public:
  /// Computes tables and embedding for `g` (which must outlive the suite).
  explicit ProtocolSuite(const graph::Graph& g, embed::EmbedOptions embed_opts = {},
                         route::DiscriminatorKind dd_kind =
                             route::DiscriminatorKind::kHops);

  /// Builds the suite around an externally chosen embedding (e.g. the paper's
  /// Figure-1 rotation, or an ablation's random rotation).
  ProtocolSuite(const graph::Graph& g, embed::Embedding embedding,
                route::DiscriminatorKind dd_kind = route::DiscriminatorKind::kHops);

  ProtocolSuite(const ProtocolSuite&) = delete;
  ProtocolSuite& operator=(const ProtocolSuite&) = delete;

  [[nodiscard]] NamedFactory reconvergence() const;
  [[nodiscard]] NamedFactory fcp() const;
  [[nodiscard]] NamedFactory pr() const;
  [[nodiscard]] NamedFactory pr_single_bit() const;
  [[nodiscard]] NamedFactory lfa() const;
  [[nodiscard]] NamedFactory lfa_node_protecting() const;
  /// LFA with PER-SCENARIO alternates: the classic variants above derive
  /// alternates from the pristine tables once (what a router knows before
  /// convergence); this one derives them per scenario from the converged
  /// tables -- built fresh via `make`, borrowed from the driver's
  /// ScenarioRoutingCache via `make_cached`.
  [[nodiscard]] NamedFactory lfa_post_convergence() const;
  [[nodiscard]] NamedFactory spf() const;

  /// The trio the paper's Figure 2 compares, in plot order.
  [[nodiscard]] std::vector<NamedFactory> paper_trio() const;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const route::RoutingDb& routes() const noexcept { return routes_; }
  [[nodiscard]] const embed::Embedding& embedding() const noexcept { return embedding_; }
  [[nodiscard]] const core::CycleFollowingTable& cycle_table() const noexcept {
    return cycles_;
  }

 private:
  const graph::Graph* graph_;
  embed::Embedding embedding_;
  route::RoutingDb routes_;
  core::CycleFollowingTable cycles_;
  /// Shared pristine-table LFA instances: the alternates depend only on
  /// routes_, so building one per scenario (the old factory behaviour) was
  /// pure waste -- an O(n^2 * degree) precompute per scenario.  forward() is
  /// read-only, so sweep workers may share these concurrently; `mutable`
  /// because the ForwardingProtocol interface is non-const while the suite's
  /// factories are const.
  mutable route::LfaRouting lfa_link_;
  mutable route::LfaRouting lfa_node_;
};

}  // namespace pr::analysis
