#include "traffic/incidence.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace pr::traffic {

void FlowIncidenceIndex::build(const net::Network& net,
                               net::ForwardingProtocol& protocol,
                               std::span<const sim::FlowSpec> flows,
                               std::span<const double> demands) {
  if (!net.failed_links().empty()) {
    throw std::invalid_argument(
        "FlowIncidenceIndex::build: network must be pristine (no failed links)");
  }
  if (demands.size() != flows.size()) {
    throw std::invalid_argument(
        "FlowIncidenceIndex::build: one demand per flow required");
  }

  // One pristine routing pass: stats, dart traces and the demand-weighted
  // load map all come from the same route_batch call the sweeps use, so the
  // recorded paths are exactly what a zero-failure scenario would walk.
  sim::BatchResult batch;
  sim::route_batch(net, protocol, flows, demands, pristine_load_,
                   sim::TraceMode::kFullTrace, batch);

  const std::size_t dart_count = net.graph().dart_count();
  path_offsets_.assign(1, 0);
  path_offsets_.reserve(flows.size() + 1);
  path_darts_.clear();
  delivered_.resize(flows.size());
  costs_.resize(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto darts = batch.darts(f);
    path_darts_.insert(path_darts_.end(), darts.begin(), darts.end());
    path_offsets_.push_back(path_darts_.size());
    delivered_[f] = batch[f].delivered() ? 1 : 0;
    costs_[f] = batch[f].cost;
  }

  // Reverse index, counting-sort style.  `last` dedupes repeated crossings of
  // the same dart within one flow (impossible for loop-free pristine paths,
  // but the index must not double-report a flow if a protocol ever loops).
  std::vector<std::size_t> count(dart_count, 0);
  std::vector<std::uint32_t> last(dart_count, UINT32_MAX);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (const graph::DartId d : flow_darts(f)) {
      if (last[d] != f) {
        last[d] = static_cast<std::uint32_t>(f);
        ++count[d];
      }
    }
  }
  dart_offsets_.assign(dart_count + 1, 0);
  for (std::size_t d = 0; d < dart_count; ++d) {
    dart_offsets_[d + 1] = dart_offsets_[d] + count[d];
  }
  dart_flows_.resize(dart_offsets_.back());
  std::vector<std::size_t> fill(dart_offsets_.begin(), dart_offsets_.end() - 1);
  std::fill(last.begin(), last.end(), UINT32_MAX);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (const graph::DartId d : flow_darts(f)) {
      if (last[d] != f) {
        last[d] = static_cast<std::uint32_t>(f);
        dart_flows_[fill[d]++] = static_cast<std::uint32_t>(f);
      }
    }
  }
  built_ = true;
}

void FlowIncidenceIndex::affected_flows(const graph::EdgeSet& failures,
                                        std::vector<std::uint8_t>& mark,
                                        std::vector<std::uint32_t>& out) const {
  mark.assign(flow_count(), 0);
  out.clear();
  for (const graph::EdgeId e : failures.elements()) {
    for (const unsigned side : {0U, 1U}) {
      const graph::DartId d = graph::make_dart(e, side);
      if (d >= dart_count()) continue;  // failure set over a larger graph
      for (const std::uint32_t f : dart_flows(d)) {
        if (mark[f] == 0) {
          mark[f] = 1;
          out.push_back(f);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  obs::count(obs::Counter::kIncidenceProbes);
  obs::count(obs::Counter::kIncidenceAffectedFlows, out.size());
  obs::count(obs::Counter::kIncidenceUniverseFlows, flow_count());
}

void GroupIncidence::build(const FlowIncidenceIndex& index,
                           const net::SrlgCatalog& catalog) {
  if (!index.built()) {
    throw std::invalid_argument("GroupIncidence::build: index is not built");
  }
  if (catalog.graph().dart_count() != index.dart_count()) {
    throw std::invalid_argument(
        "GroupIncidence::build: catalog graph disagrees with index dart count");
  }

  flow_count_ = index.flow_count();
  group_offsets_.assign(1, 0);
  group_offsets_.reserve(catalog.group_count() + 1);
  group_flows_.clear();

  std::vector<std::uint8_t> mark(flow_count_, 0);
  std::vector<std::uint32_t> touched;
  for (std::size_t g = 0; g < catalog.group_count(); ++g) {
    touched.clear();
    for (const graph::EdgeId e : catalog.members(g)) {
      for (const unsigned side : {0U, 1U}) {
        for (const std::uint32_t f : index.dart_flows(graph::make_dart(e, side))) {
          if (mark[f] == 0) {
            mark[f] = 1;
            touched.push_back(f);
          }
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    group_flows_.insert(group_flows_.end(), touched.begin(), touched.end());
    group_offsets_.push_back(group_flows_.size());
    for (const std::uint32_t f : touched) mark[f] = 0;  // cheap reset for next group
  }
  built_ = true;
}

void GroupIncidence::affected_flows(std::span<const std::size_t> groups,
                                    std::vector<std::uint8_t>& mark,
                                    std::vector<std::uint32_t>& out) const {
  mark.assign(flow_count_, 0);
  out.clear();
  for (const std::size_t g : groups) {
    for (const std::uint32_t f : group_flows(g)) {
      if (mark[f] == 0) {
        mark[f] = 1;
        out.push_back(f);
      }
    }
  }
  std::sort(out.begin(), out.end());
  obs::count(obs::Counter::kIncidenceProbes);
  obs::count(obs::Counter::kIncidenceAffectedFlows, out.size());
  obs::count(obs::Counter::kIncidenceUniverseFlows, flow_count_);
}

}  // namespace pr::traffic
