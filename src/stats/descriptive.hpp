// Descriptive statistics over double sequences.
#pragma once

#include <span>
#include <vector>

namespace flare::stats {

/// Arithmetic mean; throws std::invalid_argument on empty input.
[[nodiscard]] double mean(std::span<const double> values);

/// Unbiased (n-1) sample variance; 0 for a single element.
[[nodiscard]] double variance(std::span<const double> values);

/// Square root of `variance`.
[[nodiscard]] double stddev(std::span<const double> values);

[[nodiscard]] double min_value(std::span<const double> values);
[[nodiscard]] double max_value(std::span<const double> values);

/// Linear-interpolation percentile; `q` in [0, 1]. Sorts a copy.
[[nodiscard]] double percentile(std::span<const double> values, double q);

/// Median = percentile(0.5).
[[nodiscard]] double median(std::span<const double> values);

/// Running mean/variance accumulator (Welford). Numerically stable; used by
/// the Profiler which streams samples instead of materialising them.
class RunningStats {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Unbiased sample variance (0 when count < 2).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace flare::stats
