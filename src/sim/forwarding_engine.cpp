#include "sim/forwarding_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace pr::sim {

// --- WalkLog ----------------------------------------------------------------

namespace {

/// Entries and index slots a log starts with: one allocation per buffer
/// covers most single walks, and a batch grows them by doubling.
constexpr std::size_t kInitialEntries = 32;
constexpr std::uint32_t kInitialSlots = 32;

/// Hash of a decision state: arrival dart, header and the walk's identity.
std::uint64_t mix_state(DartId arrived_over, std::uint32_t dd, NodeId destination,
                        std::uint8_t traffic_class, bool pr_bit,
                        std::span<const graph::EdgeId> fcp) noexcept {
  std::uint64_t h = (std::uint64_t{arrived_over} << 32 | dd) * 0x9E3779B97F4A7C15ULL;
  h ^= (std::uint64_t{destination} << 32 | std::uint64_t{traffic_class} << 1 |
        static_cast<std::uint64_t>(pr_bit)) *
       0xC2B2AE3D27D4EB4FULL;
  for (const graph::EdgeId e : fcp) h = (h ^ e) * 0x165667B19E3779F9ULL;
  h ^= h >> 31;
  h *= 0xD6E8FEB86659FD93ULL;
  return h ^ (h >> 32);
}

[[noreturn]] void throw_contract_breach() {
  throw std::logic_error(
      "ForwardingEngine: a logged decision state led to a different decision "
      "(the protocol reads state outside the ForwardingProtocol contract)");
}

}  // namespace

void WalkLog::clear() noexcept {
  darts_.clear();
  states_.clear();
  fcp_pool_.clear();
  if (index_mask_ != 0) {
    std::fill_n(index_.begin(), std::size_t{index_mask_} + 1, std::uint64_t{0});
  }
  index_mask_ = 0;
  indexed_ = 0;
}

std::uint64_t WalkLog::hash_of(const FlowState& fs) noexcept {
  const Packet& p = fs.packet;
  return mix_state(fs.arrived_over, p.dd, p.destination, p.traffic_class, p.pr_bit,
                   p.fcp_failures);
}

std::uint64_t WalkLog::key_hash(std::uint32_t entry) const {
  const State& before = states_[entry - 1];
  const State& self = states_[entry];
  return mix_state(darts_[entry - 1], before.dd, self.destination, self.traffic_class,
                   (before.flags & kPrBit) != 0, fcp_list(before.fcp));
}

std::span<const graph::EdgeId> WalkLog::fcp_list(std::uint32_t fcp) const {
  if (fcp == 0) return {};
  return std::span<const graph::EdgeId>(fcp_pool_).subspan(fcp, fcp_pool_[fcp - 1]);
}

bool WalkLog::keyed_by(std::uint32_t entry, const FlowState& fs) const {
  const State& before = states_[entry - 1];
  const State& self = states_[entry];
  const Packet& p = fs.packet;
  return darts_[entry - 1] == fs.arrived_over && before.dd == p.dd &&
         self.destination == p.destination && self.traffic_class == p.traffic_class &&
         ((before.flags & kPrBit) != 0) == p.pr_bit &&
         std::ranges::equal(fcp_list(before.fcp), p.fcp_failures);
}

WalkLog::Probe WalkLog::find(const FlowState& fs) const {
  Probe probe;
  probe.hash = hash_of(fs);
  if (index_mask_ == 0) return probe;
  const std::uint64_t tag = probe.hash >> 32;
  for (std::uint32_t slot = static_cast<std::uint32_t>(probe.hash) & index_mask_;;
       slot = (slot + 1) & index_mask_) {
    const std::uint64_t held = index_[slot];
    if (held == 0) {
      probe.slot = slot;
      return probe;
    }
    if ((held >> 32) == tag) {
      const auto entry = static_cast<std::uint32_t>(held) - 1;
      if (keyed_by(entry, fs)) {
        probe.entry = entry;
        return probe;
      }
    }
  }
}

void WalkLog::push_entry(DartId dart, const FlowState& fs, std::uint8_t flags) {
  if (size() >= kNone / 2) {
    throw std::length_error("WalkLog: more entries than a call can index");
  }
  const Packet& p = fs.packet;
  State state;
  state.dd = p.dd;
  state.destination = p.destination;
  state.traffic_class = p.traffic_class;
  state.flags = static_cast<std::uint8_t>(flags | (p.pr_bit ? kPrBit : 0));
  if (!p.fcp_failures.empty()) {
    // Consecutive headers mostly carry the same list: share its copy.
    if (!states_.empty() && states_.back().fcp != 0 &&
        std::ranges::equal(fcp_list(states_.back().fcp), p.fcp_failures)) {
      state.fcp = states_.back().fcp;
    } else {
      fcp_pool_.push_back(static_cast<graph::EdgeId>(p.fcp_failures.size()));
      state.fcp = static_cast<std::uint32_t>(fcp_pool_.size());
      fcp_pool_.insert(fcp_pool_.end(), p.fcp_failures.begin(), p.fcp_failures.end());
    }
  }
  darts_.push_back(dart);
  states_.push_back(state);
}

std::uint32_t WalkLog::open_stretch(const FlowState& fs) {
  darts_.reserve(kInitialEntries);  // no-ops once warm
  states_.reserve(kInitialEntries);
  push_entry(fs.arrived_over, fs, kSeed);
  return static_cast<std::uint32_t>(size() - 1);
}

void WalkLog::append_hop(const Probe& probe, DartId out, const FlowState& fs) {
  push_entry(out, fs, 0);
  index(probe);
}

void WalkLog::append_drop(const Probe& probe, DropReason reason, const FlowState& fs) {
  const auto flags =
      static_cast<std::uint8_t>(kDrop | static_cast<unsigned>(reason) << kReasonShift);
  push_entry(graph::kInvalidDart, fs, flags);
  index(probe);
}

void WalkLog::index(const Probe& probe) {
  const auto entry = static_cast<std::uint32_t>(size() - 1);
  std::uint32_t slot = probe.slot;
  if (2 * (std::uint64_t{indexed_} + 1) > std::uint64_t{index_mask_} + 1) {
    grow_index();
    slot = static_cast<std::uint32_t>(probe.hash) & index_mask_;
    while (index_[slot] != 0) slot = (slot + 1) & index_mask_;
  }
  index_[slot] = (probe.hash >> 32 << 32) | (std::uint64_t{entry} + 1);
  ++indexed_;
}

void WalkLog::grow_index() {
  const std::uint32_t slots = index_mask_ == 0 ? kInitialSlots : 2 * (index_mask_ + 1);
  if (index_.size() < slots) index_.resize(slots);
  std::fill_n(index_.begin(), slots, std::uint64_t{0});
  index_mask_ = slots - 1;
  // Re-index every entry but the newest, which the caller indexes.
  for (std::uint32_t entry = 0; entry + 1 < size(); ++entry) {
    if ((states_[entry].flags & kSeed) != 0) continue;
    const std::uint64_t hash = key_hash(entry);
    std::uint32_t slot = static_cast<std::uint32_t>(hash) & index_mask_;
    while (index_[slot] != 0) slot = (slot + 1) & index_mask_;
    index_[slot] = (hash >> 32 << 32) | (std::uint64_t{entry} + 1);
  }
}

std::uint32_t WalkLog::run_length(std::uint32_t begin, std::uint32_t limit) const {
  const auto end = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(size(), std::uint64_t{begin} + limit));
  std::uint32_t entry = begin;
  while (entry < end && (states_[entry].flags & (kSeed | kDrop)) == 0) ++entry;
  return entry - begin;
}

void WalkLog::restore_header(std::uint32_t entry, Packet& packet) const {
  const State& e = states_[entry];
  packet.pr_bit = (e.flags & kPrBit) != 0;
  packet.dd = e.dd;
  const auto fcp = fcp_list(e.fcp);
  packet.fcp_failures.assign(fcp.begin(), fcp.end());
}

bool WalkLog::header_matches(std::uint32_t entry, const Packet& packet) const {
  const State& e = states_[entry];
  return ((e.flags & kPrBit) != 0) == packet.pr_bit && e.dd == packet.dd &&
         std::ranges::equal(fcp_list(e.fcp), packet.fcp_failures);
}

// --- ForwardingEngine --------------------------------------------------------

HopDecision ForwardingEngine::decide(FlowState& fs) const {
  const graph::Graph& g = net_->graph();
  if (fs.at == fs.packet.destination) {
    return {HopDecision::Kind::kDelivered, graph::kInvalidDart, DropReason::kNone};
  }
  if (fs.packet.ttl == 0) {
    return {HopDecision::Kind::kDropped, graph::kInvalidDart, DropReason::kTtlExpired};
  }
  const net::ForwardingDecision decision =
      protocol_->forward(*net_, fs.at, fs.arrived_over, fs.packet);
  switch (decision.action) {
    case net::ForwardingDecision::Action::kDeliver:
      // Protocols may only deliver at the destination.
      if (fs.at != fs.packet.destination) {
        throw std::logic_error(
            "ForwardingEngine: protocol delivered away from destination");
      }
      return {HopDecision::Kind::kDelivered, graph::kInvalidDart, DropReason::kNone};
    case net::ForwardingDecision::Action::kDrop:
      return {HopDecision::Kind::kDropped, graph::kInvalidDart, decision.reason};
    case net::ForwardingDecision::Action::kForward:
      break;
  }
  const DartId out = decision.out_dart;
  if (out == graph::kInvalidDart || g.dart_tail(out) != fs.at) {
    throw std::logic_error("ForwardingEngine: protocol forwarded from the wrong node");
  }
  if (!net_->dart_usable(out)) {
    throw std::logic_error("ForwardingEngine: protocol forwarded over a failed link (" +
                           g.dart_name(out) + ")");
  }
  return {HopDecision::Kind::kForward, out, DropReason::kNone};
}

void ForwardingEngine::commit(FlowState& fs, DartId out) const {
  const graph::Graph& g = net_->graph();
  fs.cost += g.edge_weight(graph::dart_edge(out));
  ++fs.hops;
  --fs.packet.ttl;
  fs.at = g.dart_head(out);
  fs.arrived_over = out;
}

FlowOutcome ForwardingEngine::run_logged(FlowState& fs, WalkLog& log,
                                         SinkRef sink) const {
  std::uint32_t replayed = 0;
  bool joined = false;
  const auto finish = [&](FlowOutcome outcome) {
    outcome.replayed_hops = replayed;
    outcome.joined = joined;
    return outcome;
  };
  const FlowOutcome ttl_expired{DeliveryStatus::kDropped, DropReason::kTtlExpired};
  // The seed of the stretch this walk is logging, kNone while it follows.
  std::uint32_t stretch = WalkLog::kNone;
  // The entries [followed, followed_end) the walk has just followed.
  std::uint32_t followed = WalkLog::kNone;
  std::uint32_t followed_end = 0;

  while (true) {
    if (fs.at == fs.packet.destination) {
      return finish({DeliveryStatus::kDelivered, DropReason::kNone});
    }
    if (fs.packet.ttl == 0) return finish(ttl_expired);
    const WalkLog::Probe probe = log.find(fs);

    if (probe.entry == WalkLog::kNone) {
      // A new state: decide it and log the decision.
      if (stretch == WalkLog::kNone) stretch = log.open_stretch(fs);
      followed = WalkLog::kNone;
      const HopDecision d = decide(fs);
      if (d.kind != HopDecision::Kind::kForward) {
        if (d.kind == HopDecision::Kind::kDropped) log.append_drop(probe, d.reason, fs);
        return finish(outcome_of(d));
      }
      commit(fs, d.out_dart);
      log.append_hop(probe, d.out_dart, fs);
      sink.hop(fs);
      continue;
    }

    if (stretch != WalkLog::kNone && probe.entry > stretch) {
      // The walk is back at a state of its own stretch: the entries from
      // there to the end of the log are its period.  Decide it once more as
      // the contract check, then take the period from the log until the TTL
      // guard drops the walk.
      const std::uint32_t begin = probe.entry;
      const auto end = static_cast<std::uint32_t>(log.size());
      for (std::uint32_t entry = begin; entry < end; ++entry) {
        if (fs.packet.ttl == 0) return finish(ttl_expired);
        const HopDecision d = decide(fs);
        if (d.kind != HopDecision::Kind::kForward ||
            d.out_dart != log.darts(entry, 1)[0] ||
            !log.header_matches(entry, fs.packet)) {
          throw_contract_breach();
        }
        commit(fs, d.out_dart);
        sink.hop(fs);
      }
      replayed += take_cycle(fs, log, begin, end, sink);
      return finish(ttl_expired);
    }

    // Another walk decided this state: follow its hops.
    stretch = WalkLog::kNone;
    joined = true;
    if (followed != WalkLog::kNone && probe.entry >= followed &&
        probe.entry < followed_end) {
      // The stretch just followed leads back into itself: a cycle.
      replayed += take_cycle(fs, log, probe.entry, followed_end, sink);
      return finish(ttl_expired);
    }
    const std::uint32_t ttl = fs.packet.ttl;
    const std::uint32_t count = log.run_length(probe.entry, ttl);
    const bool then_drop = count < ttl && log.is_drop(probe.entry + count);
#ifndef NDEBUG
    recheck(fs, log, probe.entry, count, then_drop);
#endif
    take(fs, log, probe.entry, count, 1, sink);
    replayed += count;
    if (then_drop) {
      log.restore_header(probe.entry + count, fs.packet);
      return finish({DeliveryStatus::kDropped, log.drop_reason(probe.entry + count)});
    }
    followed = probe.entry;
    followed_end = probe.entry + count;
  }
}

void ForwardingEngine::take(FlowState& fs, const WalkLog& log, std::uint32_t begin,
                            std::uint32_t count, std::uint32_t laps,
                            const SinkRef& sink) const {
  if (count == 0 || laps == 0) return;
  const graph::Graph& g = net_->graph();
  const std::span<const DartId> darts = log.darts(begin, count);
  double cost = fs.cost;
  for (std::uint32_t lap = 0; lap < laps; ++lap) {
    for (const DartId d : darts) cost += g.edge_weight(graph::dart_edge(d));
  }
  fs.cost = cost;
  fs.hops += count * laps;
  fs.packet.ttl -= count * laps;
  fs.at = g.dart_head(darts.back());
  fs.arrived_over = darts.back();
  log.restore_header(begin + count - 1, fs.packet);
  sink.span(darts, laps);
}

std::uint32_t ForwardingEngine::take_cycle(FlowState& fs, const WalkLog& log,
                                           std::uint32_t begin, std::uint32_t end,
                                           const SinkRef& sink) const {
  const std::uint32_t period = end - begin;
  const std::uint32_t hops = fs.packet.ttl;
  take(fs, log, begin, period, hops / period, sink);
  take(fs, log, begin, hops % period, 1, sink);
  return hops;
}

void ForwardingEngine::recheck(const FlowState& fs, const WalkLog& log,
                               std::uint32_t begin, std::uint32_t count,
                               bool then_drop) const {
  FlowState check = fs;
  for (std::uint32_t entry = begin; entry < begin + count; ++entry) {
    const HopDecision d = decide(check);
    if (d.kind != HopDecision::Kind::kForward ||
        d.out_dart != log.darts(entry, 1)[0] ||
        !log.header_matches(entry, check.packet)) {
      throw_contract_breach();
    }
    commit(check, d.out_dart);
  }
  if (!then_drop) return;
  const HopDecision d = decide(check);
  if (d.kind != HopDecision::Kind::kDropped ||
      d.reason != log.drop_reason(begin + count) ||
      !log.header_matches(begin + count, check.packet)) {
    throw_contract_breach();
  }
}

std::vector<FlowSpec> all_pairs_flows(const graph::Graph& g) {
  std::vector<FlowSpec> flows;
  if (g.node_count() < 2) return flows;
  flows.reserve(g.node_count() * (g.node_count() - 1));
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s != t) flows.push_back(FlowSpec{s, t});
    }
  }
  return flows;
}

// --- route_batch -------------------------------------------------------------

namespace {

/// Appends `laps` copies of `values` to `buffer`, growing its capacity by
/// powers of two as push_back does, so bulk appends leave the buffer no
/// larger than the same hops pushed one at a time would.
void append(std::vector<DartId>& buffer, std::span<const DartId> values,
            std::uint32_t laps) {
  const std::size_t begin = buffer.size();
  const std::size_t count = values.size() * laps;
  if (begin + count > buffer.capacity()) {
    buffer.reserve(std::max(std::bit_ceil(begin + count), 2 * buffer.capacity()));
  }
  buffer.insert(buffer.end(), values.begin(), values.end());
  // The other laps repeat the first: double the copied run until it covers
  // them, so short periods cost a few copies rather than one per lap.
  buffer.resize(begin + count);
  DartId* const out = buffer.data() + begin;
  for (std::size_t done = values.size(); done < count;) {
    const std::size_t n = std::min(done, count - done);
    std::copy_n(out, n, out + done);
    done += n;
  }
}

/// Per-flow link-load hooks of the two route_batch overloads.
struct NoLoad {
  void hop(DartId) const {}
  void span(std::span<const DartId>, std::uint32_t) const {}
};

struct DemandLoad {
  traffic::LoadMap* load;
  double demand;

  void hop(DartId d) const { load->add(d, demand); }
  void span(std::span<const DartId> darts, std::uint32_t laps) const {
    for (std::uint32_t lap = 0; lap < laps; ++lap) {
      for (const DartId d : darts) load->add(d, demand);
    }
  }
};

template <typename Load>
struct StatsSink {
  Load load;

  void hop(const FlowState& fs) { load.hop(fs.arrived_over); }
  void span(std::span<const DartId> darts, std::uint32_t laps) { load.span(darts, laps); }
};

template <typename Load>
struct TraceSink {
  std::vector<DartId>* darts;
  Load load;

  void hop(const FlowState& fs) {
    darts->push_back(fs.arrived_over);
    load.hop(fs.arrived_over);
  }
  void span(std::span<const DartId> ds, std::uint32_t laps) {
    append(*darts, ds, laps);
    load.span(ds, laps);
  }
};

/// The one batch loop both route_batch overloads drive.  The friended public
/// functions pass BatchResult's internals in, so this stays file-local;
/// `load_of(i)` returns flow i's link-load hook, which compiles away when
/// empty.
template <typename LoadOf>
void run_flow_batch(const Network& net, ForwardingProtocol& protocol,
                    std::span<const FlowSpec> flows, TraceMode mode,
                    std::vector<FlowStats>& stats, std::vector<DartId>& darts,
                    std::vector<std::size_t>& offsets, WalkLog& log,
                    std::size_t& delivered, LoadOf&& load_of) {
  const graph::Graph& g = net.graph();
  for (const FlowSpec& flow : flows) {
    if (flow.source >= g.node_count() || flow.destination >= g.node_count()) {
      throw std::out_of_range("route_batch: endpoint out of range");
    }
  }
  const std::uint32_t fallback_ttl = net::default_ttl(g);

  stats.reserve(flows.size());
  if (mode == TraceMode::kFullTrace) offsets.reserve(flows.size() + 1);

  const ForwardingEngine engine(net, protocol);
  // Dataplane telemetry accumulates in locals and flushes ONCE per batch:
  // the hot loop never touches thread-local state, and a disabled sink costs
  // exactly one branch per route_batch call.
  const bool observed = obs::enabled();
  std::uint64_t obs_delivered = 0;
  std::uint64_t obs_dropped = 0;
  std::uint64_t obs_hops = 0;
  std::uint64_t obs_decisions = 0;
  std::uint64_t obs_joins = 0;
  std::uint64_t obs_cycle_flows = 0;
  std::uint64_t obs_cycle_hops = 0;
  FlowState fs;  // recycled across flows; FCP-list capacity survives reset()
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& flow = flows[i];
    fs.reset(flow.source, flow.destination,
             flow.ttl == 0 ? fallback_ttl : flow.ttl, flow.traffic_class);

    FlowOutcome outcome;
    if (mode == TraceMode::kFullTrace) {
      offsets.push_back(darts.size());
      TraceSink sink{&darts, load_of(i)};
      outcome = engine.run(fs, log, sink);
    } else {
      StatsSink sink{load_of(i)};
      outcome = engine.run(fs, log, sink);
    }

    stats.push_back(FlowStats{outcome.status, outcome.reason, fs.hops, fs.cost});
    if (outcome.status == DeliveryStatus::kDelivered) ++delivered;
    if (observed) {
      obs_hops += fs.hops;
      obs_decisions += fs.hops - outcome.replayed_hops;
      if (outcome.joined) ++obs_joins;
      if (outcome.status == DeliveryStatus::kDelivered) {
        ++obs_delivered;
      } else {
        ++obs_dropped;
      }
      if (fs.packet.pr_bit) {
        // The flow ended in PR cycle-follow mode: its whole walk priced the
        // paper's recovery mechanism, so its hop count feeds the
        // cycle-follow-length telemetry.
        ++obs_cycle_flows;
        obs_cycle_hops += fs.hops;
      }
    }
  }
  if (mode == TraceMode::kFullTrace) offsets.push_back(darts.size());
  if (observed) {
    obs::count(obs::Counter::kFlowsRouted, flows.size());
    obs::count(obs::Counter::kFlowsDelivered, obs_delivered);
    obs::count(obs::Counter::kFlowsDropped, obs_dropped);
    obs::count(obs::Counter::kForwardHops, obs_hops);
    obs::count(obs::Counter::kForwardDecisions, obs_decisions);
    obs::count(obs::Counter::kForwardJoins, obs_joins);
    obs::count(obs::Counter::kCycleFollowFlows, obs_cycle_flows);
    obs::count(obs::Counter::kCycleFollowHops, obs_cycle_hops);
  }
}

}  // namespace

void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, TraceMode mode, BatchResult& out) {
  out.clear();
  out.mode_ = mode;
  run_flow_batch(net, protocol, flows, mode, out.stats_, out.darts_, out.offsets_,
                 out.log_, out.delivered_, [](std::size_t) { return NoLoad{}; });
}

BatchResult route_batch(const Network& net, ForwardingProtocol& protocol,
                        std::span<const FlowSpec> flows, TraceMode mode) {
  BatchResult out;
  route_batch(net, protocol, flows, mode, out);
  return out;
}

void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, std::span<const double> demands,
                 traffic::LoadMap& load, TraceMode mode, BatchResult& out) {
  if (demands.size() != flows.size()) {
    throw std::invalid_argument("route_batch: one demand per flow required");
  }
  out.clear();
  out.mode_ = mode;
  load.reset(net.graph().dart_count());
  run_flow_batch(net, protocol, flows, mode, out.stats_, out.darts_, out.offsets_,
                 out.log_, out.delivered_, [&load, demands](std::size_t i) {
                   return DemandLoad{&load, demands[i]};
                 });
}

}  // namespace pr::sim
