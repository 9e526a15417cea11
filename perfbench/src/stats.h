// Summary statistics of the benchmark: nearest-rank percentiles and the
// least-squares line the serve cost fit uses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least a fraction
/// `p` of the sample at or below it (rank ceil(p*n), 1-based; p = 0 gives
/// the minimum). `p` is a fraction: 50.0 is a caller bug, not the median,
/// so anything outside [0, 1] throws instead of being clamped.
inline double percentile(std::vector<double> values, double p) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument("percentile fraction " + std::to_string(p) +
                                " outside [0, 1]");
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

inline double median(const std::vector<double>& values) { return percentile(values, 0.5); }

inline double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (const double v : values) s += v;
  return s;
}

inline double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

/// y = intercept + slope * x by ordinary least squares.
struct line_fit {
  double intercept = 0.0;
  double slope = 0.0;
  std::size_t points = 0;
};

/// Needs at least two distinct x values.
inline line_fit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("fit_line: x and y differ in length");
  const double mx = mean(x);
  const double my = mean(y);
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (!(sxx > 0.0)) throw std::invalid_argument("fit_line needs two distinct x values");
  line_fit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.points = x.size();
  return f;
}

}  // namespace perfbench
