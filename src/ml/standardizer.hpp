// Zero-mean / unit-variance standardisation (FLARE §4.3: "we first normalize
// each metric to have zero mean and unit variance, eliminating the biases
// from the metrics' inherent magnitudes").
#pragma once

#include "linalg/matrix.hpp"

namespace flare::ml {

class Standardizer {
 public:
  /// Learns per-column mean and standard deviation. Constant columns get a
  /// unit scale so they map to exactly zero instead of NaN.
  void fit(const linalg::Matrix& data);

  /// (x - mean) / std, column-wise. Requires fit() first.
  [[nodiscard]] linalg::Matrix transform(const linalg::Matrix& data) const;

  /// fit() followed by transform() on the same data.
  [[nodiscard]] linalg::Matrix fit_transform(const linalg::Matrix& data);

  /// Maps standardised data back to the original scale.
  [[nodiscard]] linalg::Matrix inverse_transform(const linalg::Matrix& data) const;

  /// Rebuilds a fitted Standardizer from externally accumulated Welford
  /// moments (per-column mean, M2 = Σ(x-mean)², row count) — the out-of-core
  /// path streams blocks through one moments pass and never holds the data
  /// this would otherwise be fit() on. Scales follow fit()'s conventions:
  /// sd = sqrt(M2 / (count-1)), constant columns get unit scale, and a
  /// single-row count keeps unit scales.
  [[nodiscard]] static Standardizer from_moments(std::vector<double> means,
                                                 std::vector<double> m2,
                                                 std::size_t count);

  [[nodiscard]] bool fitted() const { return !means_.empty(); }
  [[nodiscard]] const std::vector<double>& means() const { return means_; }
  [[nodiscard]] const std::vector<double>& scales() const { return scales_; }
  /// Rows behind the fitted moments.
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::vector<double> means_;
  std::vector<double> scales_;
  std::size_t count_ = 0;  ///< rows behind the moments
};

}  // namespace flare::ml
