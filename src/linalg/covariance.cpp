#include "linalg/covariance.hpp"

#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace flare::linalg {

std::vector<double> column_means(const Matrix& data) {
  ensure(data.rows() > 0, "column_means: empty matrix");
  std::vector<double> means(data.cols(), 0.0);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto row = data.row(r);
    for (std::size_t c = 0; c < data.cols(); ++c) means[c] += row[c];
  }
  for (double& m : means) m /= static_cast<double>(data.rows());
  return means;
}

Matrix covariance_matrix(const Matrix& data, util::ThreadPool* pool) {
  ensure(data.rows() >= 2, "covariance_matrix: need at least two observations");
  const std::vector<double> means = column_means(data);
  const double denom = static_cast<double>(data.rows() - 1);
  Matrix cov = centered_cross_products(data, means, pool);
  for (std::size_t i = 0; i < cov.rows(); ++i) {
    for (std::size_t j = 0; j < cov.cols(); ++j) cov(i, j) /= denom;
  }
  return cov;
}

}  // namespace flare::linalg
