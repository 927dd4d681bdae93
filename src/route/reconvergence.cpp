#include "route/reconvergence.hpp"

namespace pr::route {

ReconvergedRouting::ReconvergedRouting(const net::Network& net, DiscriminatorKind kind)
    : owned_(std::make_unique<RoutingDb>(net.graph(), &net.failed_links(), kind)),
      routes_(owned_.get()) {}

ReconvergedRouting::ReconvergedRouting(const net::Network& /*net*/,
                                       const RoutingDb& shared)
    : routes_(&shared) {}

net::ForwardingDecision ReconvergedRouting::forward(const net::Network& net, NodeId at,
                                                    DartId /*arrived_over*/,
                                                    net::Packet& packet) {
  if (at == packet.destination) return net::ForwardingDecision::deliver();
  const DartId out = routes_->next_dart(at, packet.destination);
  if (out == graph::kInvalidDart || !net.dart_usable(out)) {
    return net::ForwardingDecision::drop(net::DropReason::kNoRoute);
  }
  return net::ForwardingDecision::forward(out);
}

TimedReconvergence::TimedReconvergence(const net::Network& net, const RoutingDb& before)
    : net_(&net), before_(&before) {}

void TimedReconvergence::complete_convergence() {
  after_.emplace(*net_, before_->discriminator_kind());
}

net::ForwardingDecision TimedReconvergence::forward(const net::Network& net, NodeId at,
                                                    DartId arrived_over,
                                                    net::Packet& packet) {
  if (after_) return after_->forward(net, at, arrived_over, packet);
  if (at == packet.destination) return net::ForwardingDecision::deliver();
  const DartId out = before_->next_dart(at, packet.destination);
  if (out == graph::kInvalidDart) {
    return net::ForwardingDecision::drop(net::DropReason::kNoRoute);
  }
  if (!net.dart_usable(out)) {
    // Pre-convergence: no alternative installed yet, the packet is lost.
    return net::ForwardingDecision::drop(net::DropReason::kPolicy);
  }
  return net::ForwardingDecision::forward(out);
}

}  // namespace pr::route
