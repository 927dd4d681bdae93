#include "analysis/protocols.hpp"

namespace pr::analysis {

namespace {

/// Non-owning adapter so factories can hand out suite-owned protocol
/// instances through the unique_ptr-returning factory interface.  The
/// referenced protocol must outlive the scenario (suite members do by
/// contract).
class BorrowedProtocol final : public net::ForwardingProtocol {
 public:
  explicit BorrowedProtocol(net::ForwardingProtocol& inner) : inner_(&inner) {}

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net,
                                                graph::NodeId at,
                                                graph::DartId arrived_over,
                                                net::Packet& packet) override {
    return inner_->forward(net, at, arrived_over, packet);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

 private:
  net::ForwardingProtocol* inner_;
};

/// Per-scenario LFA: alternates derived from the converged tables of the
/// network's current failure set, which it either builds and owns (drivers
/// without a cache) or borrows from the driver's ScenarioRoutingCache.
class PostConvergenceLfa final : public net::ForwardingProtocol {
 public:
  PostConvergenceLfa(const net::Network& net, route::DiscriminatorKind kind)
      : owned_(std::make_unique<route::RoutingDb>(net.graph(), &net.failed_links(),
                                                  kind)),
        lfa_(*owned_, route::LfaKind::kLinkProtecting) {}

  /// `tables` must reflect the network's current failure set and outlive
  /// this instance.
  explicit PostConvergenceLfa(const route::RoutingDb& tables)
      : lfa_(tables, route::LfaKind::kLinkProtecting) {}

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net,
                                                graph::NodeId at,
                                                graph::DartId arrived_over,
                                                net::Packet& packet) override {
    return lfa_.forward(net, at, arrived_over, packet);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return lfa_.name();
  }

 private:
  std::unique_ptr<route::RoutingDb> owned_;  ///< null when borrowing cache tables
  route::LfaRouting lfa_;
};

}  // namespace

ProtocolSuite::ProtocolSuite(const graph::Graph& g, embed::EmbedOptions embed_opts,
                             route::DiscriminatorKind dd_kind)
    : graph_(&g),
      embedding_(embed::embed(g, embed_opts)),
      routes_(g, nullptr, dd_kind),
      cycles_(embedding_.rotation),
      lfa_link_(routes_, route::LfaKind::kLinkProtecting),
      lfa_node_(routes_, route::LfaKind::kNodeProtecting) {}

ProtocolSuite::ProtocolSuite(const graph::Graph& g, embed::Embedding embedding,
                             route::DiscriminatorKind dd_kind)
    : graph_(&g),
      embedding_(std::move(embedding)),
      routes_(g, nullptr, dd_kind),
      cycles_(embedding_.rotation),
      lfa_link_(routes_, route::LfaKind::kLinkProtecting),
      lfa_node_(routes_, route::LfaKind::kNodeProtecting) {}

NamedFactory ProtocolSuite::reconvergence() const {
  NamedFactory factory;
  factory.name = "Re-convergence";
  const auto kind = routes_.discriminator_kind();
  // Reference path: one fresh RoutingDb (n full Dijkstras) per scenario.
  // Both paths build with the suite's discriminator kind so their tables
  // are interchangeable bit for bit.
  factory.make = [kind](const net::Network& net) {
    return std::make_unique<route::ReconvergedRouting>(net, kind);
  };
  // Sweep path: borrow the driver's delta-repaired tables -- bit-identical
  // to the fresh build, but only the trees touching a failed edge are
  // recomputed.
  factory.make_cached = [kind](const net::Network& net,
                               route::ScenarioRoutingCache& cache) {
    return std::make_unique<route::ReconvergedRouting>(
        net, cache.tables(net.graph(), net.failed_links(), kind));
  };
  return factory;
}

NamedFactory ProtocolSuite::fcp() const {
  return {"Failure-Carrying Packets", [this](const net::Network&) {
            return std::make_unique<route::FcpRouting>(*graph_);
          }};
}

NamedFactory ProtocolSuite::pr() const {
  return {"Packet Re-cycling", [this](const net::Network&) {
            return std::make_unique<core::PacketRecycling>(
                routes_, cycles_, core::PrVariant::kDistanceDiscriminator);
          }};
}

NamedFactory ProtocolSuite::pr_single_bit() const {
  return {"Packet Re-cycling (1-bit)", [this](const net::Network&) {
            return std::make_unique<core::PacketRecycling>(routes_, cycles_,
                                                           core::PrVariant::kSingleBit);
          }};
}

NamedFactory ProtocolSuite::lfa() const {
  // Pristine-table alternates depend only on routes_, so all scenarios share
  // the suite-owned instance instead of re-deriving it per scenario.
  return {"Loop-Free Alternates", [this](const net::Network&) {
            return std::make_unique<BorrowedProtocol>(lfa_link_);
          }};
}

NamedFactory ProtocolSuite::lfa_node_protecting() const {
  return {"LFA (node-protecting)", [this](const net::Network&) {
            return std::make_unique<BorrowedProtocol>(lfa_node_);
          }};
}

NamedFactory ProtocolSuite::lfa_post_convergence() const {
  NamedFactory factory;
  factory.name = "LFA (post-convergence)";
  const auto kind = routes_.discriminator_kind();
  // Reference path: fresh converged tables + fresh alternate derivation.
  factory.make = [kind](const net::Network& net) {
    return std::make_unique<PostConvergenceLfa>(net, kind);
  };
  // Sweep path: alternates derived from the driver cache's delta-repaired
  // tables -- bit-identical to the fresh build.
  factory.make_cached = [kind](const net::Network& net,
                               route::ScenarioRoutingCache& cache) {
    return std::make_unique<PostConvergenceLfa>(
        cache.tables(net.graph(), net.failed_links(), kind));
  };
  return factory;
}

NamedFactory ProtocolSuite::spf() const {
  return {"Plain SPF", [this](const net::Network&) {
            return std::make_unique<route::StaticSpf>(routes_);
          }};
}

std::vector<NamedFactory> ProtocolSuite::paper_trio() const {
  return {reconvergence(), fcp(), pr()};
}

}  // namespace pr::analysis
