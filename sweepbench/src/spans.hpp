// In-memory span recording for the traced run.
//
// The traced run wraps every call the replica cell makes into a library
// layer in a span: name (the layer), start, end, parent span and the
// scenario index as request id.  Spans stay in memory, one log per thread,
// and are summarised and written out after the sweep: per layer the self
// time (span time minus the time its child spans cover), the call count and
// the per-call median and p99, plus how much of each scenario cell's time
// the layer spans cover.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sweepbench {

enum class Layer : std::uint8_t {
  kSweep,          ///< one replayed driver call
  kIndexBuild,     ///< FlowIncidenceIndex / GroupIncidence pristine pass
  kPristineCells,  ///< storm: the calm-scenario cells priced once per call
  kCell,           ///< one scenario (all protocols): the unit of work
  kSample,         ///< StormModel::sample
  kFailLink,       ///< Network construction and fail_link / restore_link
  kComponents,     ///< graph::connected_components(_into)
  kProbe,          ///< affected_flows probe and re-route list compaction
  kRepair,         ///< ScenarioRoutingCache::tables
  kMakeProtocol,   ///< analysis::make_protocol
  kRouteBatch,     ///< sim::route_batch over the affected flows
  kReplay,         ///< LoadMap replay in canonical flow order
  kUtilization,    ///< traffic::apply_utilization
  kReduce,         ///< folding a scenario's outcome into the result
  kCheckpoint,     ///< CheckpointWriter encoding of the result state
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

inline constexpr std::uint64_t kInheritRequest = ~std::uint64_t{0};
inline constexpr std::int32_t kNoParent = -1;

struct Span {
  Layer layer = Layer::kSweep;
  std::int32_t parent = kNoParent;  ///< index into the same log
  std::uint64_t request = kInheritRequest;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One thread's spans.  Not synchronised: each sweep worker owns one.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t lane = 0) : lane_(lane) {}

  /// Opens a span under the innermost open one; kInheritRequest takes the
  /// parent's request id.
  std::uint32_t open(Layer layer, std::uint64_t request = kInheritRequest);
  void close(std::uint32_t index);

  [[nodiscard]] std::uint32_t lane() const noexcept { return lane_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint32_t lane_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer, std::uint64_t request = kInheritRequest)
      : log_(log), index_(log.open(layer, request)) {}
  ~ScopedSpan() { log_.close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t index_;
};

struct LayerStats {
  double self_ms = 0.0;
  std::uint64_t calls = 0;
  double p50_ms = 0.0;  ///< per-call span duration
  double p99_ms = 0.0;
};

struct TraceSummary {
  std::array<LayerStats, kLayerCount> layers{};
  /// Share of cell time covered by the cells' child spans.
  double coverage = 0.0;
  std::vector<double> cell_ms;  ///< per-cell durations, sorted ascending
};

[[nodiscard]] TraceSummary summarize(std::span<const SpanLog> logs);

/// chrome://tracing "traceEvents" JSON of every span (complete "X" events,
/// microseconds from the earliest span, one tid per log).
[[nodiscard]] std::string chrome_trace_json(std::span<const SpanLog> logs);

/// Nearest-rank quantile of an ascending vector (0 when empty).
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

}  // namespace sweepbench
