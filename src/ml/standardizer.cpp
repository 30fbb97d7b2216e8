#include "ml/standardizer.hpp"

#include <cmath>
#include <string>

#include "linalg/covariance.hpp"
#include "ml/impute.hpp"
#include "util/error.hpp"

namespace flare::ml {

void Standardizer::fit(const linalg::Matrix& data) {
  ensure(data.rows() >= 1, "Standardizer::fit: empty data");
  // Non-finite cells would silently poison every moment (NaN means, NaN
  // scales, and from there the whole PCA).
  require_finite(data, "Standardizer::fit");
  means_ = linalg::column_means(data);
  scales_.assign(data.cols(), 1.0);
  count_ = data.rows();
  if (data.rows() < 2) return;  // single row: keep unit scales
  for (std::size_t c = 0; c < data.cols(); ++c) {
    double sum_sq = 0.0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
      const double d = data(r, c) - means_[c];
      sum_sq += d * d;
    }
    const double sd = std::sqrt(sum_sq / static_cast<double>(data.rows() - 1));
    scales_[c] = sd > 0.0 ? sd : 1.0;
  }
}

Standardizer Standardizer::from_moments(std::vector<double> means,
                                        std::vector<double> m2,
                                        std::size_t count) {
  ensure(!means.empty(), "Standardizer::from_moments: empty moments");
  ensure(means.size() == m2.size(),
         "Standardizer::from_moments: mean/M2 size mismatch");
  ensure(count >= 1, "Standardizer::from_moments: need at least one row");
  for (std::size_t c = 0; c < means.size(); ++c) {
    if (!std::isfinite(means[c]) || !std::isfinite(m2[c]) || m2[c] < 0.0) {
      throw FaultError("Standardizer::from_moments: non-finite or negative "
                       "moment in column " + std::to_string(c));
    }
  }
  Standardizer s;
  s.means_ = std::move(means);
  s.count_ = count;
  s.scales_.assign(s.means_.size(), 1.0);
  if (count >= 2) {
    for (std::size_t c = 0; c < s.means_.size(); ++c) {
      const double sd = std::sqrt(m2[c] / static_cast<double>(count - 1));
      s.scales_[c] = sd > 0.0 ? sd : 1.0;
    }
  }
  return s;
}

linalg::Matrix Standardizer::transform(const linalg::Matrix& data) const {
  ensure(fitted(), "Standardizer::transform: not fitted");
  ensure(data.cols() == means_.size(), "Standardizer::transform: column mismatch");
  linalg::Matrix out(data.rows(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      out(r, c) = (data(r, c) - means_[c]) / scales_[c];
    }
  }
  return out;
}

linalg::Matrix Standardizer::fit_transform(const linalg::Matrix& data) {
  fit(data);
  return transform(data);
}

linalg::Matrix Standardizer::inverse_transform(const linalg::Matrix& data) const {
  ensure(fitted(), "Standardizer::inverse_transform: not fitted");
  ensure(data.cols() == means_.size(),
         "Standardizer::inverse_transform: column mismatch");
  linalg::Matrix out(data.rows(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      out(r, c) = data(r, c) * scales_[c] + means_[c];
    }
  }
  return out;
}

}  // namespace flare::ml
