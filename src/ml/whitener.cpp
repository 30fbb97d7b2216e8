#include "ml/whitener.hpp"

#include <cmath>
#include <span>
#include <vector>

#include "linalg/covariance.hpp"
#include "util/error.hpp"

namespace flare::ml {

void Whitener::fit(const linalg::Matrix& scores) {
  ensure(scores.rows() >= 2, "Whitener::fit: need at least two rows");
  ensure_numeric(scores.rows() >= scores.cols(),
                 "Whitener::fit: fewer rows than columns — per-component "
                 "variances are not identifiable from a rank-deficient score "
                 "matrix; reduce components or collect more rows");
  means_ = linalg::column_means(scores);
  // One row-major pass, one accumulator per column: each column still sums
  // its rows in order from 0.0.
  std::vector<double> sum_sq(scores.cols(), 0.0);
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    const std::span<const double> row = scores.row(r);
    for (std::size_t c = 0; c < scores.cols(); ++c) {
      const double d = row[c] - means_[c];
      sum_sq[c] += d * d;
    }
  }
  scales_.assign(scores.cols(), 1.0);
  for (std::size_t c = 0; c < scores.cols(); ++c) {
    const double sd = std::sqrt(sum_sq[c] / static_cast<double>(scores.rows() - 1));
    scales_[c] = sd > 0.0 ? sd : 1.0;
  }
}

linalg::Matrix Whitener::transform(const linalg::Matrix& scores) const {
  ensure(fitted(), "Whitener::transform: not fitted");
  ensure(scores.cols() == means_.size(), "Whitener::transform: column mismatch");
  linalg::Matrix out(scores.rows(), scores.cols());
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    for (std::size_t c = 0; c < scores.cols(); ++c) {
      out(r, c) = (scores(r, c) - means_[c]) / scales_[c];
    }
  }
  return out;
}

linalg::Matrix Whitener::fit_transform(const linalg::Matrix& scores) {
  fit(scores);
  return transform(scores);
}

linalg::Matrix Whitener::inverse_transform(const linalg::Matrix& white) const {
  ensure(fitted(), "Whitener::inverse_transform: not fitted");
  ensure(white.cols() == means_.size(), "Whitener::inverse_transform: column mismatch");
  linalg::Matrix out(white.rows(), white.cols());
  for (std::size_t r = 0; r < white.rows(); ++r) {
    for (std::size_t c = 0; c < white.cols(); ++c) {
      out(r, c) = white(r, c) * scales_[c] + means_[c];
    }
  }
  return out;
}

}  // namespace flare::ml
