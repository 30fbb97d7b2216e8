#include "ml/pca.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "util/error.hpp"

namespace flare::ml {
namespace {

/// Fix eigenvector sign for determinism: largest-|loading| entry positive.
void fix_component_signs(linalg::Matrix& vectors) {
  for (std::size_t j = 0; j < vectors.cols(); ++j) {
    std::size_t arg_max = 0;
    double best = 0.0;
    for (std::size_t i = 0; i < vectors.rows(); ++i) {
      const double mag = std::abs(vectors(i, j));
      if (mag > best) {
        best = mag;
        arg_max = i;
      }
    }
    if (vectors(arg_max, j) < 0.0) {
      for (std::size_t i = 0; i < vectors.rows(); ++i) {
        vectors(i, j) = -vectors(i, j);
      }
    }
  }
}

}  // namespace

void Pca::fit(const linalg::Matrix& data, util::ThreadPool* pool) {
  ensure(data.rows() >= 2, "Pca::fit: need at least two observations");
  ensure(data.cols() >= 1, "Pca::fit: need at least one variable");
  ensure_numeric(data.rows() >= data.cols(),
                 "Pca::fit: fewer rows than columns — the sample covariance is "
                 "rank-deficient and trailing eigenpairs are unidentifiable; "
                 "collect at least as many observations as variables");

  const linalg::Matrix cov = linalg::covariance_matrix(data, pool);
  set_basis(linalg::column_means(data), linalg::symmetric_eigen(cov), data.rows());
}

void Pca::fit_from_covariance(std::vector<double> mean,
                              const linalg::Matrix& covariance,
                              std::size_t count) {
  ensure(covariance.rows() == covariance.cols(),
         "Pca::fit_from_covariance: covariance must be square");
  ensure(mean.size() == covariance.rows(),
         "Pca::fit_from_covariance: mean/covariance dimension mismatch");
  ensure(count >= 2, "Pca::fit_from_covariance: need at least two observations");
  ensure_numeric(count >= covariance.rows(),
                 "Pca::fit_from_covariance: fewer rows than variables — the "
                 "sample covariance is rank-deficient and trailing eigenpairs "
                 "are unidentifiable");

  set_basis(std::move(mean), linalg::symmetric_eigen(covariance), count);
}

void Pca::set_basis(std::vector<double> mean, linalg::SymmetricEigenResult eig,
                    std::size_t count) {
  // Covariance matrices are PSD; clamp tiny negative round-off.
  for (double& ev : eig.eigenvalues) ev = std::max(ev, 0.0);
  fix_component_signs(eig.eigenvectors);
  mean_ = std::move(mean);
  components_ = std::move(eig.eigenvectors);
  eigenvalues_ = std::move(eig.eigenvalues);
  count_ = count;
  recompute_ratios();
}

void Pca::recompute_ratios() {
  double total = 0.0;
  for (const double ev : eigenvalues_) total += ev;
  explained_ratio_.assign(eigenvalues_.size(), 0.0);
  if (total > 0.0) {
    for (std::size_t i = 0; i < eigenvalues_.size(); ++i) {
      explained_ratio_[i] = eigenvalues_[i] / total;
    }
  }
}

linalg::Matrix Pca::transform(const linalg::Matrix& data, std::size_t k) const {
  ensure(fitted(), "Pca::transform: not fitted");
  ensure(data.cols() == dimension(), "Pca::transform: column mismatch");
  ensure(k >= 1 && k <= dimension(), "Pca::transform: invalid component count");
  return linalg::centered_product(data, mean_, components_, k);
}

linalg::Matrix Pca::inverse_transform(const linalg::Matrix& scores) const {
  ensure(fitted(), "Pca::inverse_transform: not fitted");
  const std::size_t k = scores.cols();
  ensure(k >= 1 && k <= dimension(),
         "Pca::inverse_transform: invalid component count");
  linalg::Matrix out(scores.rows(), dimension());
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    for (std::size_t i = 0; i < dimension(); ++i) {
      double x = mean_[i];
      for (std::size_t j = 0; j < k; ++j) {
        x += scores(r, j) * components_(i, j);
      }
      out(r, i) = x;
    }
  }
  return out;
}

const std::vector<double>& Pca::explained_variance_ratio() const {
  ensure(fitted(), "Pca::explained_variance_ratio: not fitted");
  return explained_ratio_;
}

double Pca::cumulative_explained_variance(std::size_t k) const {
  ensure(fitted(), "Pca::cumulative_explained_variance: not fitted");
  ensure(k <= explained_ratio_.size(),
         "Pca::cumulative_explained_variance: k out of range");
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += explained_ratio_[i];
  return sum;
}

std::size_t Pca::num_components_for(double target) const {
  ensure(fitted(), "Pca::num_components_for: not fitted");
  ensure(target > 0.0 && target <= 1.0,
         "Pca::num_components_for: target must be in (0, 1]");
  double sum = 0.0;
  for (std::size_t i = 0; i < explained_ratio_.size(); ++i) {
    sum += explained_ratio_[i];
    if (sum >= target - 1e-12) return i + 1;
  }
  return explained_ratio_.size();
}

double Pca::loading(std::size_t var, std::size_t comp) const {
  ensure(fitted(), "Pca::loading: not fitted");
  ensure(var < dimension() && comp < dimension(), "Pca::loading: index out of range");
  return components_(var, comp);
}

const linalg::Matrix& Pca::components() const {
  ensure(fitted(), "Pca::components: not fitted");
  return components_;
}

const std::vector<double>& Pca::eigenvalues() const {
  ensure(fitted(), "Pca::eigenvalues: not fitted");
  return eigenvalues_;
}

}  // namespace flare::ml
