#include "analysis/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace pr::analysis {

std::vector<double> paper_stretch_axis() {
  std::vector<double> xs;
  for (int x = 1; x <= 15; ++x) xs.push_back(static_cast<double>(x));
  return xs;
}

std::string format_ccdf_table(
    std::span<const double> xs,
    const std::vector<std::pair<std::string, std::vector<double>>>& series) {
  std::ostringstream out;
  out << std::left << std::setw(10) << "stretch";
  for (const auto& [name, _] : series) out << std::setw(28) << name;
  out << "\n";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out << std::left << std::setw(10) << xs[i];
    for (const auto& [_, values] : series) {
      std::ostringstream cell;
      cell << std::fixed << std::setprecision(4)
           << (i < values.size() ? values[i] : 0.0);
      out << std::setw(28) << cell.str();
    }
    out << "\n";
  }
  return out.str();
}

std::string format_stretch_report(const StretchExperimentResult& result,
                                  std::span<const double> xs) {
  std::vector<std::pair<std::string, std::vector<double>>> series;
  series.reserve(result.protocols.size());
  for (const auto& p : result.protocols) {
    series.emplace_back(p.name, ccdf(p.stretches, xs));
  }
  std::ostringstream out;
  out << "P(Stretch > x | affected path)   scenarios=" << result.scenarios
      << "  affected-pairs=" << result.affected_pairs << "\n";
  out << format_ccdf_table(xs, series);
  for (const auto& p : result.protocols) {
    out << std::left << std::setw(28) << p.name << " delivered=" << p.delivered
        << " dropped=" << p.dropped() << std::fixed << std::setprecision(3)
        << " mean-stretch=" << p.mean_finite_stretch()
        << " max-stretch=" << p.max_finite_stretch() << "\n";
  }
  return out.str();
}

std::string format_coverage_report(const StretchExperimentResult& result) {
  std::ostringstream out;
  out << std::left << std::setw(28) << "protocol" << std::setw(12) << "delivered"
      << std::setw(20) << "dropped-reachable" << std::setw(20) << "dropped-partition"
      << "coverage\n";
  for (const auto& p : result.protocols) {
    out << std::left << std::setw(28) << p.name << std::setw(12) << p.delivered
        << std::setw(20) << p.dropped_reachable << std::setw(20)
        << p.dropped_partitioned << std::fixed << std::setprecision(4) << p.coverage()
        << "\n";
  }
  return out.str();
}

}  // namespace pr::analysis
