#include "obs/telemetry.hpp"

#include <cstdarg>
#include <cstdio>

namespace pr::obs {

#if !defined(PR_OBS_DISABLED)
thread_local Counters* g_thread_sink = nullptr;
#endif

const char* to_string(Counter c) noexcept {
  switch (c) {
    case Counter::kSpfFullBuilds: return "spf_full_builds";
    case Counter::kSpfRepairs: return "spf_repairs";
    case Counter::kSpfTreeRepairs: return "spf_tree_repairs";
    case Counter::kSpfOrphanNodes: return "spf_orphan_nodes";
    case Counter::kRouteCachePristineBuilds: return "route_cache_pristine_builds";
    case Counter::kRouteCacheRebuilds: return "route_cache_rebuilds";
    case Counter::kRouteCacheHits: return "route_cache_hits";
    case Counter::kFcpMemoHits: return "fcp_memo_hits";
    case Counter::kFcpMemoFills: return "fcp_memo_fills";
    case Counter::kFcpMemoEvictions: return "fcp_memo_evictions";
    case Counter::kIncidenceProbes: return "incidence_probes";
    case Counter::kIncidenceAffectedFlows: return "incidence_affected_flows";
    case Counter::kIncidenceUniverseFlows: return "incidence_universe_flows";
    case Counter::kFlowsRouted: return "flows_routed";
    case Counter::kFlowsDelivered: return "flows_delivered";
    case Counter::kFlowsDropped: return "flows_dropped";
    case Counter::kForwardHops: return "forward_hops";
    case Counter::kForwardDecisions: return "forward_decisions";
    case Counter::kForwardJoins: return "forward_joins";
    case Counter::kCycleFollowFlows: return "cycle_follow_flows";
    case Counter::kCycleFollowHops: return "cycle_follow_hops";
    case Counter::kUnitsExecuted: return "units_executed";
    case Counter::kUnitErrors: return "unit_errors";
    case Counter::kReduceCalls: return "reduce_calls";
    case Counter::kCheckpoints: return "checkpoints";
    case Counter::kCheckpointBytes: return "checkpoint_bytes";
    case Counter::kCount: break;
  }
  return "unknown";
}

const char* to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kUnit: return "unit";
    case Phase::kReduce: return "reduce";
    case Phase::kSpfRebuild: return "spf_rebuild";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kCount: break;
  }
  return "unknown";
}

namespace {

// Ratio helper for the derived-rate block; 0/0 reports as 0 so a bench leg
// that never touched a subsystem still emits a well-formed number.
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n) < sizeof buf ? static_cast<std::size_t>(n) : sizeof buf - 1);
}

}  // namespace

std::string telemetry_json(const Registry& registry, double elapsed_ms, int indent) {
  const Counters total = registry.aggregate();
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  const std::string pad2 = pad + "  ";
  const std::string pad3 = pad2 + "  ";
  std::string out;
  out.reserve(4096);

  const std::uint64_t cache_hits = total.get(Counter::kRouteCacheHits);
  const std::uint64_t cache_lookups = cache_hits + total.get(Counter::kRouteCacheRebuilds) +
                                      total.get(Counter::kRouteCachePristineBuilds);
  const std::uint64_t repairs =
      total.get(Counter::kSpfRepairs) + total.get(Counter::kSpfTreeRepairs);
  const std::uint64_t spf_ops = repairs + total.get(Counter::kSpfFullBuilds);
  const std::uint64_t fcp_hits = total.get(Counter::kFcpMemoHits);
  const std::uint64_t fcp_lookups = fcp_hits + total.get(Counter::kFcpMemoFills);

  out += "{\n";
  append_fmt(out, "%s\"cache_hit_rate\": %.6f,\n", pad2.c_str(),
             ratio(cache_hits, cache_lookups));
  append_fmt(out, "%s\"repair_fraction\": %.6f,\n", pad2.c_str(), ratio(repairs, spf_ops));
  append_fmt(out, "%s\"fcp_memo_hit_rate\": %.6f,\n", pad2.c_str(),
             ratio(fcp_hits, fcp_lookups));
  append_fmt(out, "%s\"affected_flow_fraction\": %.6f,\n", pad2.c_str(),
             ratio(total.get(Counter::kIncidenceAffectedFlows),
                   total.get(Counter::kIncidenceUniverseFlows)));
  append_fmt(out, "%s\"decision_fraction\": %.6f,\n", pad2.c_str(),
             ratio(total.get(Counter::kForwardDecisions),
                   total.get(Counter::kForwardHops)));

  out += pad2 + "\"counters\": {\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    append_fmt(out, "%s\"%s\": %llu%s\n", pad3.c_str(), to_string(c),
               static_cast<unsigned long long>(total.get(c)),
               i + 1 < kCounterCount ? "," : "");
  }
  out += pad2 + "},\n";

  out += pad2 + "\"phases\": {\n";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto p = static_cast<Phase>(i);
    append_fmt(out, "%s\"%s\": {\"ms\": %.3f, \"calls\": %llu}%s\n", pad3.c_str(),
               to_string(p), static_cast<double>(total.phase_nanos(p)) / 1e6,
               static_cast<unsigned long long>(total.phase_calls(p)),
               i + 1 < kPhaseCount ? "," : "");
  }
  out += pad2 + "},\n";

  // Per-worker rows keep only the scheduling-visible numbers: units executed,
  // busy unit time, and (when the caller supplies the job wall time) the
  // utilization each worker achieved.  Worker identity is scheduler noise, so
  // these rows are diagnostic, not part of any determinism check.
  out += pad2 + "\"per_worker\": [\n";
  for (std::size_t w = 0; w < registry.worker_count(); ++w) {
    const Counters& cell = registry.worker(w);
    const double busy_ms = static_cast<double>(cell.phase_nanos(Phase::kUnit)) / 1e6;
    append_fmt(out, "%s{\"worker\": %zu, \"units\": %llu, \"busy_ms\": %.3f", pad3.c_str(),
               w, static_cast<unsigned long long>(cell.get(Counter::kUnitsExecuted)),
               busy_ms);
    if (elapsed_ms > 0.0) {
      append_fmt(out, ", \"utilization\": %.4f", busy_ms / elapsed_ms);
    }
    out += w + 1 < registry.worker_count() ? "},\n" : "}\n";
  }
  out += pad2 + "]\n";
  out += pad + "}";
  return out;
}

}  // namespace pr::obs
