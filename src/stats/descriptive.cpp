#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace flare::stats {

double mean(std::span<const double> values) {
  ensure(!values.empty(), "mean: empty input");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  ensure(!values.empty(), "variance: empty input");
  if (values.size() == 1) return 0.0;
  const double m = mean(values);
  double sum_sq = 0.0;
  for (const double v : values) sum_sq += (v - m) * (v - m);
  return sum_sq / static_cast<double>(values.size() - 1);
}

double stddev(std::span<const double> values) { return std::sqrt(variance(values)); }

double min_value(std::span<const double> values) {
  ensure(!values.empty(), "min_value: empty input");
  return *std::min_element(values.begin(), values.end());
}

double max_value(std::span<const double> values) {
  ensure(!values.empty(), "max_value: empty input");
  return *std::max_element(values.begin(), values.end());
}

double percentile(std::span<const double> values, double q) {
  ensure(!values.empty(), "percentile: empty input");
  ensure(q >= 0.0 && q <= 1.0, "percentile: q must be in [0, 1]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) { return percentile(values, 0.5); }

void RunningStats::add(double value) {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::mean() const {
  ensure(count_ > 0, "RunningStats::mean: no samples");
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace flare::stats
