// Confidence intervals of the mean; used for sampling-baseline error bars
// (paper Fig. 12b reports 95% confidence intervals for random sampling).
#pragma once

#include <span>

namespace flare::stats {

struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;
  double point = 0.0;  ///< point estimate (mean of the data)

  [[nodiscard]] double width() const { return upper - lower; }
  [[nodiscard]] bool contains(double value) const {
    return value >= lower && value <= upper;
  }
};

/// Normal-approximation CI of the mean (mean ± z * s/sqrt(n)).
[[nodiscard]] ConfidenceInterval normal_mean_ci(std::span<const double> values,
                                                double confidence);

/// Half-width of the normal-approximation CI of the mean: z · s/√n. Returns
/// 0 for a single observation (no spread information yet — callers that gate
/// on the half-width must require at least two measurements first). Used by
/// the Replayer's noise-gated repeat measurement.
[[nodiscard]] double mean_ci_halfwidth(std::span<const double> values,
                                       double confidence = 0.95);

}  // namespace flare::stats
