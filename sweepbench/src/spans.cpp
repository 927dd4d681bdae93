#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/telemetry.hpp"

namespace sweepbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSweep: return "analysis.sweep";
    case Layer::kIndexBuild: return "traffic.index_build";
    case Layer::kPristineCells: return "analysis.pristine_cells";
    case Layer::kCell: return "analysis.cell";
    case Layer::kSample: return "net.sample";
    case Layer::kFailLink: return "net.fail_link";
    case Layer::kComponents: return "graph.components";
    case Layer::kProbe: return "traffic.probe";
    case Layer::kRepair: return "route.repair";
    case Layer::kMakeProtocol: return "analysis.make_protocol";
    case Layer::kRouteBatch: return "sim.route_batch";
    case Layer::kReplay: return "traffic.replay";
    case Layer::kUtilization: return "traffic.utilization";
    case Layer::kReduce: return "analysis.reduce";
    case Layer::kCheckpoint: return "analysis.checkpoint";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::uint32_t SpanLog::open(Layer layer, std::uint64_t request) {
  Span span;
  span.layer = layer;
  if (!open_.empty()) {
    span.parent = static_cast<std::int32_t>(open_.back());
    if (request == kInheritRequest) request = spans_[open_.back()].request;
  }
  span.request = request;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last, so the bookkeeping above falls outside the span.
  spans_.back().start_ns = pr::obs::now_ns();
  return index;
}

void SpanLog::close(std::uint32_t index) {
  const std::uint64_t now = pr::obs::now_ns();
  spans_[index].end_ns = now;
  open_.pop_back();
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

TraceSummary summarize(std::span<const SpanLog> logs) {
  TraceSummary out;
  std::array<std::vector<double>, kLayerCount> durations;
  double cell_total = 0.0;
  double cell_covered = 0.0;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent != kNoParent) {
        child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto layer = static_cast<std::size_t>(s.layer);
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      out.layers[layer].self_ms += (ns - child_ns[i]) / 1e6;
      ++out.layers[layer].calls;
      durations[layer].push_back(ns / 1e6);
      if (s.layer == Layer::kCell) {
        cell_total += ns;
        cell_covered += child_ns[i];
        out.cell_ms.push_back(ns / 1e6);
      }
    }
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::sort(durations[l].begin(), durations[l].end());
    out.layers[l].p50_ms = quantile_sorted(durations[l], 0.50);
    out.layers[l].p99_ms = quantile_sorted(durations[l], 0.99);
  }
  std::sort(out.cell_ms.begin(), out.cell_ms.end());
  out.coverage = cell_total > 0.0 ? cell_covered / cell_total : 0.0;
  return out;
}

std::string chrome_trace_json(std::span<const SpanLog> logs) {
  std::uint64_t origin = std::numeric_limits<std::uint64_t>::max();
  std::size_t total = 0;
  for (const SpanLog& log : logs) {
    total += log.spans().size();
    for (const Span& s : log.spans()) origin = std::min(origin, s.start_ns);
  }
  std::string out;
  out.reserve(total * 160 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const SpanLog& log : logs) {
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      const long long request =
          s.request == kInheritRequest ? -1 : static_cast<long long>(s.request);
      const int n = std::snprintf(
          buf, sizeof buf,
          "%s\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%lld}}",
          first ? "" : ",", layer_name(s.layer), log.lane(),
          static_cast<double>(s.start_ns - origin) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, request);
      out.append(buf, static_cast<std::size_t>(std::min<int>(n, sizeof buf - 1)));
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace sweepbench
