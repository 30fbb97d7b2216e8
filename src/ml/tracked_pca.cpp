#include "ml/tracked_pca.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "ml/standardizer.hpp"
#include "util/error.hpp"

namespace flare::ml {

TrackedPca::TrackedPca(const Pca& basis, std::size_t anchor_components) {
  ensure(basis.fitted(), "TrackedPca: basis is not fitted");
  const std::size_t d = basis.dimension();
  ensure(anchor_components >= 1 && anchor_components <= d,
         "TrackedPca: invalid anchor component count");
  mean_ = basis.mean();
  frame_ = basis.components();
  covariance_ = linalg::Matrix(d, d);
  for (std::size_t i = 0; i < d; ++i) covariance_(i, i) = basis.eigenvalues()[i];
  count_ = basis.observations();
  anchor_components_ = anchor_components;
}

PcaUpdateStats TrackedPca::fold(const linalg::Matrix& batch,
                                const Standardizer& batch_moments,
                                util::ThreadPool* pool) {
  ensure(fitted(), "TrackedPca::fold: not fitted");
  const std::size_t d = dimension();
  ensure(batch.rows() >= 1, "TrackedPca::fold: batch must have at least one row");
  ensure(batch.cols() == d, "TrackedPca::fold: column mismatch");
  ensure(batch_moments.fitted() && batch_moments.means().size() == d,
         "TrackedPca::fold: batch moments dimension mismatch");
  ensure(batch_moments.count() == batch.rows(),
         "TrackedPca::fold: batch moments must cover exactly the batch rows");

  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(batch.rows());
  const double n = n1 + n2;
  const std::vector<double>& mu2 = batch_moments.means();

  PcaUpdateStats stats;
  stats.batch_rows = batch.rows();

  // Batch deviations about the batch mean, in the frame: Y = (X₂ − 1μ₂ᵀ)·V₀.
  const linalg::Matrix y = linalg::centered_product(batch, mu2, frame_, d, pool);

  // Mean-shift direction in the frame: z = V₀ᵀ(μ₂ − μ₁).
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
    for (std::size_t j = 0; j < d; ++j) z[j] += di * frame_(i, j);
  }

  // Chan's scatter merge of the batch into the running moments:
  //   M ← [(n₁−1)·M + YᵀY + (n₁n₂/n)·zzᵀ] / (n−1).
  linalg::Matrix merged =
      linalg::centered_cross_products(y, std::vector<double>(d, 0.0), pool);
  const double cross = n1 * n2 / n;
  const double denom = n - 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      double value = merged(i, j) + cross * z[i] * z[j];
      value += (n1 - 1.0) * covariance_(i, j);
      merged(i, j) = value / denom;
    }
  }

  // Drift of the leading-k eigenvectors Z of M from the anchor, which in the
  // frame is the first k axes E. The residual R = E − Z·(ZᵀE) has the sines
  // of the principal angles as its singular values, so sin(θ_max) =
  // √λ_max(RᵀR); V₀ is orthogonal, so the frame changes none of them.
  // Reading the sine off R keeps full precision near zero drift, where
  // √(1 − λ_min(AᵀA)) with A = ZᵀE would turn a 1e-16 rounding error into
  // 1e-8 of drift.
  const std::size_t k = anchor_components_;
  const linalg::Matrix leading =
      linalg::symmetric_eigen_leading(merged, k).eigenvectors;
  linalg::Matrix residual(d, k);
  for (std::size_t r = 0; r < d; ++r) {
    const std::span<const double> zr = leading.row(r);
    for (std::size_t j = 0; j < k; ++j) {
      const std::span<const double> zj = leading.row(j);
      double projected = 0.0;
      for (std::size_t i = 0; i < k; ++i) projected += zr[i] * zj[i];
      residual(r, j) = (r == j ? 1.0 : 0.0) - projected;
    }
  }
  const linalg::Matrix gram =
      linalg::centered_cross_products(residual, std::vector<double>(k, 0.0));
  const double largest = linalg::symmetric_eigen_leading(gram, 0).eigenvalues.front();

  // Commit only after every solve succeeded.
  covariance_ = std::move(merged);
  for (std::size_t i = 0; i < d; ++i) {
    mean_[i] = (n1 * mean_[i] + n2 * mu2[i]) / n;
  }
  count_ = static_cast<std::size_t>(n);
  drift_ = std::sqrt(std::clamp(largest, 0.0, 1.0));

  stats.total_rows = count_;
  stats.subspace_drift = drift_;
  return stats;
}

Pca TrackedPca::materialize(util::ThreadPool* pool) const {
  ensure(fitted(), "TrackedPca::materialize: not fitted");
  linalg::SymmetricEigenResult eig = linalg::symmetric_eigen_ql(covariance_);
  eig.eigenvectors = frame_.multiply(eig.eigenvectors, pool);
  Pca pca;
  pca.set_basis(mean_, std::move(eig), count_);
  return pca;
}

}  // namespace flare::ml
