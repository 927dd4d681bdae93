#include "sim/run_control.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace pr::sim {
namespace {

[[noreturn]] void fail_cadence(const char* var, std::string_view raw,
                               const std::string& detail) {
  throw std::invalid_argument(std::string(var) + "='" + std::string(raw) +
                              "': " + detail);
}

std::size_t parse_count(std::string_view digits, const char* var,
                        std::string_view raw) {
  std::size_t value = 0;
  if (!parse_count_arg(std::string(digits).c_str(),
                       std::numeric_limits<std::size_t>::max(), value)) {
    fail_cadence(var, raw,
                 "expected a positive integer, got '" + std::string(digits) + "'");
  }
  if (value == 0) {
    fail_cadence(var, raw, "cadence terms must be > 0 (omit the term instead)");
  }
  return value;
}

}  // namespace

bool parse_count_arg(const char* raw, std::size_t max_value, std::size_t& out) {
  if (raw == nullptr) return false;
  // from_chars takes no sign, whitespace or prefix for an unsigned type, so
  // consuming the whole string means every character was a digit.
  const char* const end = raw + std::strlen(raw);
  std::size_t value = 0;
  const auto [stop, error] = std::from_chars(raw, end, value);
  if (error != std::errc{} || stop != end || value > max_value) return false;
  out = value;
  return true;
}

CheckpointCadence CheckpointCadence::parse(std::string_view spec, const char* var) {
  CheckpointCadence cadence;
  std::size_t start = 0;
  bool saw_units = false;
  bool saw_period = false;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? spec.size() : comma;
    const std::string_view term = spec.substr(start, end - start);
    if (term.empty()) {
      fail_cadence(var, spec, "empty cadence term");
    }
    // Suffix decides the dimension: ms/s are time, a bare number or a 'u'
    // suffix is units.  Checked longest-suffix-first ("ms" before "s").
    if (term.size() > 2 && term.substr(term.size() - 2) == "ms") {
      if (saw_period) fail_cadence(var, spec, "more than one time term");
      saw_period = true;
      cadence.period = std::chrono::milliseconds(
          parse_count(term.substr(0, term.size() - 2), var, spec));
    } else if (term.size() > 1 && term.back() == 's') {
      if (saw_period) fail_cadence(var, spec, "more than one time term");
      saw_period = true;
      cadence.period = std::chrono::seconds(
          parse_count(term.substr(0, term.size() - 1), var, spec));
    } else {
      const std::string_view digits =
          term.back() == 'u' ? term.substr(0, term.size() - 1) : term;
      if (saw_units) fail_cadence(var, spec, "more than one unit term");
      saw_units = true;
      cadence.units = parse_count(digits, var, spec);
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return cadence;
}

CheckpointCadence CheckpointCadence::from_env() {
  const char* raw = std::getenv("PR_CKPT_EVERY");
  if (raw == nullptr || *raw == '\0') return CheckpointCadence{};
  return parse(raw, "PR_CKPT_EVERY");
}

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kBudget: return "budget";
    case StopReason::kUnitError: return "unit-error";
  }
  return "unknown";
}

}  // namespace pr::sim
