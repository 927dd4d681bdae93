#include "sim/fault_plan.hpp"

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "sim/run_control.hpp"

namespace pr::sim {
namespace {

std::vector<std::string> split_commas(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? text.size() : comma;
    out.emplace_back(text.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Every from_env failure goes through here so the message always names the
/// offending variable AND its full raw value -- a typo'd fault script in CI
/// must be diagnosable from the error alone.
[[noreturn]] void fail_env(const char* var, std::string_view raw,
                           const std::string& detail) {
  throw std::invalid_argument(std::string(var) + "='" + std::string(raw) +
                              "': " + detail);
}

std::size_t parse_index(const std::string& token, const char* var,
                        std::string_view raw) {
  std::size_t value = 0;
  if (!parse_count_arg(token.c_str(), std::numeric_limits<std::size_t>::max(), value)) {
    fail_env(var, raw, "expected a non-negative integer, got '" + token + "'");
  }
  return value;
}

/// Duplicate unit indices in one variable are rejected rather than silently
/// collapsed (sets) or last-wins overwritten (the stall map).
void reject_duplicate(std::set<std::size_t>& seen, std::size_t unit, const char* var,
                      std::string_view raw) {
  if (!seen.insert(unit).second) {
    fail_env(var, raw, "duplicate unit " + std::to_string(unit));
  }
}

}  // namespace

std::string FaultPlan::describe() const {
  if (empty()) return "no faults";
  std::ostringstream out;
  const char* sep = "";
  if (!throw_units_.empty()) {
    out << sep << "throw in unit";
    for (const std::size_t u : throw_units_) out << ' ' << u;
    sep = "; ";
  }
  if (!stalls_.empty()) {
    out << sep << "stall";
    for (const auto& [u, d] : stalls_) out << ' ' << u << ':' << d.count() << "ms";
    sep = "; ";
  }
  if (!malformed_units_.empty()) {
    out << sep << "malformed scenario in unit";
    for (const std::size_t u : malformed_units_) out << ' ' << u;
    sep = "; ";
  }
  if (!abort_units_.empty()) {
    out << sep << "abort in unit";
    for (const std::size_t u : abort_units_) out << ' ' << u;
    sep = "; ";
  }
  if (fail_checkpoint_) out << sep << "fail at checkpoint";
  return out.str();
}

FaultPlan FaultPlan::from_env() {
  FaultPlan plan;
  if (const char* raw = std::getenv("PR_FAULT_THROW_UNIT"); raw != nullptr && *raw != '\0') {
    std::set<std::size_t> seen;
    for (const auto& token : split_commas(raw)) {
      const std::size_t unit = parse_index(token, "PR_FAULT_THROW_UNIT", raw);
      reject_duplicate(seen, unit, "PR_FAULT_THROW_UNIT", raw);
      plan.throw_in_unit(unit);
    }
  }
  if (const char* raw = std::getenv("PR_FAULT_STALL_UNIT"); raw != nullptr && *raw != '\0') {
    std::set<std::size_t> seen;
    for (const auto& token : split_commas(raw)) {
      const std::size_t colon = token.find(':');
      if (colon == std::string::npos) {
        fail_env("PR_FAULT_STALL_UNIT", raw, "expected 'unit:ms', got '" + token + "'");
      }
      const std::size_t unit =
          parse_index(token.substr(0, colon), "PR_FAULT_STALL_UNIT", raw);
      const std::size_t ms =
          parse_index(token.substr(colon + 1), "PR_FAULT_STALL_UNIT", raw);
      reject_duplicate(seen, unit, "PR_FAULT_STALL_UNIT", raw);
      plan.stall_unit(unit, std::chrono::milliseconds(ms));
    }
  }
  if (const char* raw = std::getenv("PR_FAULT_FAIL_CHECKPOINT"); raw != nullptr && *raw != '\0') {
    const std::string_view value(raw);
    if (value == "1" || value == "true" || value == "yes") {
      plan.fail_at_checkpoint();
    } else if (value != "0" && value != "false" && value != "no") {
      fail_env("PR_FAULT_FAIL_CHECKPOINT", raw, "expected 0/1");
    }
  }
  if (const char* raw = std::getenv("PR_FAULT_MALFORMED_UNIT"); raw != nullptr && *raw != '\0') {
    std::set<std::size_t> seen;
    for (const auto& token : split_commas(raw)) {
      const std::size_t unit = parse_index(token, "PR_FAULT_MALFORMED_UNIT", raw);
      reject_duplicate(seen, unit, "PR_FAULT_MALFORMED_UNIT", raw);
      plan.malformed_scenario(unit);
    }
  }
  if (const char* raw = std::getenv("PR_FAULT_ABORT_UNIT"); raw != nullptr && *raw != '\0') {
    std::set<std::size_t> seen;
    for (const auto& token : split_commas(raw)) {
      const std::size_t unit = parse_index(token, "PR_FAULT_ABORT_UNIT", raw);
      reject_duplicate(seen, unit, "PR_FAULT_ABORT_UNIT", raw);
      plan.abort_in_unit(unit);
    }
  }
  return plan;
}

}  // namespace pr::sim
