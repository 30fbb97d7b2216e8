#include "ml/pca.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "ml/standardizer.hpp"
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

  mean_ = linalg::column_means(data);
  const linalg::Matrix cov = linalg::covariance_matrix(data, pool);
  linalg::SymmetricEigenResult eig = linalg::symmetric_eigen(cov);

  // Covariance matrices are PSD; clamp tiny negative round-off.
  for (double& ev : eig.eigenvalues) ev = std::max(ev, 0.0);

  fix_component_signs(eig.eigenvectors);

  components_ = std::move(eig.eigenvectors);
  eigenvalues_ = std::move(eig.eigenvalues);
  count_ = data.rows();
  anchor_ = linalg::Matrix();
  drift_ = 0.0;
  recompute_ratios();
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

  linalg::SymmetricEigenResult eig = linalg::symmetric_eigen(covariance);
  for (double& ev : eig.eigenvalues) ev = std::max(ev, 0.0);
  fix_component_signs(eig.eigenvectors);

  mean_ = std::move(mean);
  components_ = std::move(eig.eigenvectors);
  eigenvalues_ = std::move(eig.eigenvalues);
  count_ = count;
  anchor_ = linalg::Matrix();
  drift_ = 0.0;
  recompute_ratios();
}

PcaUpdateStats Pca::update(const linalg::Matrix& batch,
                           const Standardizer& batch_moments,
                           util::ThreadPool* pool) {
  ensure(fitted(), "Pca::update: not fitted");
  const std::size_t d = dimension();
  ensure(batch.rows() >= 1, "Pca::update: batch must have at least one row");
  ensure(batch.cols() == d, "Pca::update: column mismatch");
  ensure(batch_moments.fitted() && batch_moments.means().size() == d,
         "Pca::update: batch moments dimension mismatch");
  ensure(batch_moments.count() == batch.rows(),
         "Pca::update: batch moments must cover exactly the batch rows");

  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(batch.rows());
  const double n = n1 + n2;
  const std::vector<double>& mu2 = batch_moments.means();

  PcaUpdateStats stats;
  stats.batch_rows = batch.rows();

  // Batch deviations about the batch mean, rotated into the eigenbasis:
  // Y = (X₂ − 1μ₂ᵀ)·V.
  const linalg::Matrix y =
      linalg::centered_product(batch, mu2, components_, d, pool);

  // Mean-shift direction in the eigenbasis: z = Vᵀ(μ₂ − μ₁).
  std::vector<double> delta(d);
  double shift_sq = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    delta[i] = mu2[i] - mean_[i];
    shift_sq += delta[i] * delta[i];
  }
  stats.mean_shift = std::sqrt(shift_sq);
  std::vector<double> z(d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    const double di = delta[i];
    if (di == 0.0) continue;
    for (std::size_t j = 0; j < d; ++j) z[j] += di * components_(i, j);
  }

  // Merged sample covariance in eigenbasis coordinates (Chan's scatter merge,
  // the matrix analogue of Standardizer::merge):
  //   M = [(n₁−1)·diag(λ) + YᵀY + (n₁n₂/n)·zzᵀ] / (n−1).
  // VᵀC₁V = diag(λ) exactly, so M is near-diagonal. Eigenvectors of the
  // merged covariance are then V·W.
  linalg::Matrix m =
      linalg::centered_cross_products(y, std::vector<double>(d, 0.0), pool);
  const double cross = n1 * n2 / n;
  const double denom = n - 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      double value = m(i, j) + cross * z[i] * z[j];
      if (i == j) value += (n1 - 1.0) * eigenvalues_[i];
      m(i, j) = value / denom;
    }
  }

  linalg::SymmetricEigenResult eig = linalg::symmetric_eigen_ql(m);
  for (double& ev : eig.eigenvalues) ev = std::max(ev, 0.0);

  linalg::Matrix rotated = components_.multiply(eig.eigenvectors, pool);
  fix_component_signs(rotated);
  components_ = std::move(rotated);
  eigenvalues_ = std::move(eig.eigenvalues);
  for (std::size_t i = 0; i < d; ++i) {
    mean_[i] = (n1 * mean_[i] + n2 * mu2[i]) / n;
  }
  count_ = static_cast<std::size_t>(n);
  recompute_ratios();

  drift_ = drift_against_anchor();
  stats.total_rows = count_;
  stats.subspace_drift = drift_;
  return stats;
}

PcaUpdateStats Pca::update(const linalg::Matrix& batch, util::ThreadPool* pool) {
  Standardizer moments;
  moments.fit(batch);
  return update(batch, moments, pool);
}

void Pca::set_drift_anchor(std::size_t k) {
  ensure(fitted(), "Pca::set_drift_anchor: not fitted");
  ensure(k >= 1 && k <= dimension(),
         "Pca::set_drift_anchor: invalid component count");
  anchor_ = linalg::Matrix(dimension(), k);
  for (std::size_t i = 0; i < dimension(); ++i) {
    for (std::size_t j = 0; j < k; ++j) anchor_(i, j) = components_(i, j);
  }
  drift_ = 0.0;
}

double Pca::drift_against_anchor() const {
  const std::size_t k = anchor_.cols();
  if (k == 0) return 0.0;
  const std::size_t d = anchor_.rows();
  // The residual of the anchor off the current leading-k basis,
  // R = anchor − V_k·(V_kᵀ·anchor), has the sines of the principal angles as
  // its singular values, so sin(θ_max) = √λ_max(RᵀR). Reading the sine off R
  // keeps full precision near zero drift, where √(1 − λ_min(AᵀA)) with
  // A = V_kᵀ·anchor would turn a 1e-16 rounding error into 1e-8 of drift.
  linalg::Matrix overlap(k, k);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const double v = components_(r, i);
      for (std::size_t j = 0; j < k; ++j) overlap(i, j) += v * anchor_(r, j);
    }
  }
  linalg::Matrix residual = anchor_;
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const double v = components_(r, i);
      for (std::size_t j = 0; j < k; ++j) residual(r, j) -= v * overlap(i, j);
    }
  }
  const linalg::Matrix gram =
      linalg::centered_cross_products(residual, std::vector<double>(k, 0.0));
  const linalg::SymmetricEigenResult eig = linalg::symmetric_eigen_ql(gram);
  return std::sqrt(std::clamp(eig.eigenvalues.front(), 0.0, 1.0));
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

linalg::Matrix Pca::transform(const linalg::Matrix& data) const {
  return transform(data, dimension());
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
