// The full-QL tracked-basis fold, kept only as the oracle for
// ml::TrackedPca. Every batch re-diagonalises the whole merged covariance
// with linalg::symmetric_eigen_ql, rotates the basis to V·W, fixes signs and
// measures drift against an anchor copied out of the basis — the per-batch
// chain TrackedPca replaced with a fixed frame and a leading-k solve.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "ml/pca.hpp"
#include "ml/standardizer.hpp"

namespace flare::testing {

class FullQlTrackedBasis {
 public:
  /// Starts from `basis`, anchored at its leading `k` axes.
  FullQlTrackedBasis(const ml::Pca& basis, std::size_t k)
      : mean_(basis.mean()),
        components_(basis.components()),
        eigenvalues_(basis.eigenvalues()),
        count_(basis.observations()),
        anchor_(basis.components().rows(), k) {
    for (std::size_t i = 0; i < anchor_.rows(); ++i) {
      for (std::size_t j = 0; j < k; ++j) anchor_(i, j) = components_(i, j);
    }
  }

  /// Chan's scatter merge in the current eigenbasis, then the full QL solve.
  void fold(const linalg::Matrix& batch) {
    ml::Standardizer moments;
    moments.fit(batch);
    const std::size_t d = mean_.size();
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(batch.rows());
    const double n = n1 + n2;
    const std::vector<double>& mu2 = moments.means();
    const linalg::Matrix y = linalg::centered_product(batch, mu2, components_, d);
    std::vector<double> z(d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
      const double di = mu2[i] - mean_[i];
      for (std::size_t j = 0; j < d; ++j) z[j] += di * components_(i, j);
    }
    linalg::Matrix m =
        linalg::centered_cross_products(y, std::vector<double>(d, 0.0));
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        double value = m(i, j) + n1 * n2 / n * z[i] * z[j];
        if (i == j) value += (n1 - 1.0) * eigenvalues_[i];
        m(i, j) = value / (n - 1.0);
      }
    }
    linalg::SymmetricEigenResult eig = linalg::symmetric_eigen_ql(m);
    for (double& ev : eig.eigenvalues) ev = std::max(ev, 0.0);
    components_ = components_.multiply(eig.eigenvectors);
    fix_signs(components_);
    eigenvalues_ = std::move(eig.eigenvalues);
    for (std::size_t i = 0; i < d; ++i) mean_[i] = (n1 * mean_[i] + n2 * mu2[i]) / n;
    count_ += batch.rows();
    drift_ = drift_against_anchor();
  }

  [[nodiscard]] double drift() const { return drift_; }
  [[nodiscard]] const linalg::Matrix& components() const { return components_; }
  [[nodiscard]] const std::vector<double>& eigenvalues() const { return eigenvalues_; }
  [[nodiscard]] std::size_t observations() const { return count_; }

  [[nodiscard]] std::vector<double> explained_variance_ratio() const {
    double total = 0.0;
    for (const double ev : eigenvalues_) total += ev;
    std::vector<double> ratios(eigenvalues_.size(), 0.0);
    for (std::size_t i = 0; i < ratios.size() && total > 0.0; ++i) {
      ratios[i] = eigenvalues_[i] / total;
    }
    return ratios;
  }

 private:
  static void fix_signs(linalg::Matrix& v) {
    for (std::size_t j = 0; j < v.cols(); ++j) {
      std::size_t arg_max = 0;
      for (std::size_t i = 1; i < v.rows(); ++i) {
        if (std::abs(v(i, j)) > std::abs(v(arg_max, j))) arg_max = i;
      }
      if (v(arg_max, j) < 0.0) {
        for (std::size_t i = 0; i < v.rows(); ++i) v(i, j) = -v(i, j);
      }
    }
  }

  /// sin θ_max off the residual R = A − V_k·(V_kᵀA), √λ_max(RᵀR).
  [[nodiscard]] double drift_against_anchor() const {
    const std::size_t d = anchor_.rows();
    const std::size_t k = anchor_.cols();
    linalg::Matrix overlap(k, k);
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
          overlap(i, j) += components_(r, i) * anchor_(r, j);
        }
      }
    }
    linalg::Matrix residual = anchor_;
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
          residual(r, j) -= components_(r, i) * overlap(i, j);
        }
      }
    }
    const linalg::Matrix gram =
        linalg::centered_cross_products(residual, std::vector<double>(k, 0.0));
    const double largest = linalg::symmetric_eigen_ql(gram).eigenvalues.front();
    return std::sqrt(std::clamp(largest, 0.0, 1.0));
  }

  std::vector<double> mean_;
  linalg::Matrix components_;
  std::vector<double> eigenvalues_;
  std::size_t count_;
  linalg::Matrix anchor_;
  double drift_ = 0.0;
};

}  // namespace flare::testing
