// Plain-text rendering of experiment results: the same rows/series the paper
// plots, printable by every bench binary.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stretch.hpp"

namespace pr::analysis {

/// The x axis of the paper's Figure 2: stretch 1..15.
[[nodiscard]] std::vector<double> paper_stretch_axis();

/// Renders a CCDF table: one row per x, one column per named series.
[[nodiscard]] std::string format_ccdf_table(
    std::span<const double> xs,
    const std::vector<std::pair<std::string, std::vector<double>>>& series);

/// Renders the Figure-2-style comparison for a finished stretch experiment.
[[nodiscard]] std::string format_stretch_report(const StretchExperimentResult& result,
                                                std::span<const double> xs);

/// Renders the coverage table of ablation A2.
[[nodiscard]] std::string format_coverage_report(const StretchExperimentResult& result);

}  // namespace pr::analysis
