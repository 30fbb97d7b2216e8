// Principal Component Analysis (FLARE §4.3).
//
// The paper standardises the refined metrics, extracts PCs via the covariance
// eigendecomposition, keeps enough components to explain 95 % of variance
// (18 in their datacenter), and then *interprets* each PC through its signed
// loadings (Fig. 8). This class exposes exactly those pieces: scores,
// explained-variance ratios, and per-component loadings.
//
// The class holds a fitted basis only: the batch fit by the cold Jacobi
// solve (whose bits the golden hashes pin), or one built from covariance
// moments. Streamed ingest does not advance it in place — it folds batches
// into an ml::TrackedPca (tracked_pca.hpp), which keeps only what the drift
// gate needs per batch and materialises a full Pca when a splice refit asks
// for one. A Pca has no lazily filled state, so concurrent const readers
// (serve snapshots) need no locking.
#pragma once

#include "linalg/matrix.hpp"

namespace flare::linalg {
struct SymmetricEigenResult;
}

namespace flare::ml {

class Pca {
 public:
  /// Fits on a data matrix (rows = observations). The input is expected to be
  /// standardised already (the Analyzer composes Standardizer -> Pca).
  /// `pool` parallelises the covariance rank-k update; results are identical
  /// for every thread count (see linalg::covariance_matrix).
  /// Throws util::NumericalError when rows < cols: the sample covariance is
  /// then rank-deficient and the trailing eigenpairs are unidentifiable.
  void fit(const linalg::Matrix& data, util::ThreadPool* pool = nullptr);

  /// Fits from an externally accumulated covariance instead of raw rows —
  /// the out-of-core path assembles the covariance of the standardised kept
  /// columns (their correlation matrix) in one streaming comoment pass and
  /// never materialises the data fit() would need. `mean` is the per-variable
  /// mean of the (virtual) fit data and `count` its row count; eigensolve,
  /// sign fixing and ratio bookkeeping match fit() exactly.
  void fit_from_covariance(std::vector<double> mean,
                           const linalg::Matrix& covariance, std::size_t count);

  /// Projects data onto the first `k` principal axes:
  /// scores = (x - mean) · V[:, :k].
  [[nodiscard]] linalg::Matrix transform(const linalg::Matrix& data,
                                         std::size_t k) const;

  /// Reconstructs data from the first `k` components (lossy if k < dim).
  [[nodiscard]] linalg::Matrix inverse_transform(const linalg::Matrix& scores) const;

  /// Fraction of total variance captured by each component, descending.
  [[nodiscard]] const std::vector<double>& explained_variance_ratio() const;

  /// Cumulative explained variance after the first `k` components.
  [[nodiscard]] double cumulative_explained_variance(std::size_t k) const;

  /// Smallest k whose cumulative explained variance reaches `target`
  /// (e.g. 0.95 -> 18 components in the paper).
  [[nodiscard]] std::size_t num_components_for(double target) const;

  /// Loading of original variable `var` on component `comp` — the signed
  /// weight used for Fig. 8-style interpretation.
  [[nodiscard]] double loading(std::size_t var, std::size_t comp) const;

  /// Full loading matrix (variables × components, columns are unit vectors).
  [[nodiscard]] const linalg::Matrix& components() const;

  /// Raw eigenvalues of the covariance matrix, descending.
  [[nodiscard]] const std::vector<double>& eigenvalues() const;

  /// Observations behind the fitted moments.
  [[nodiscard]] std::size_t observations() const { return count_; }

  /// Per-variable mean of the fit data.
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }

  [[nodiscard]] std::size_t dimension() const { return mean_.size(); }
  [[nodiscard]] bool fitted() const { return !mean_.empty(); }

 private:
  friend class TrackedPca;

  /// Adopts a decomposition as the fitted basis: clamps round-off negative
  /// eigenvalues to zero, fixes each axis' sign (largest-|loading| entry
  /// positive) and recomputes the ratios. Every way of fitting ends here.
  void set_basis(std::vector<double> mean, linalg::SymmetricEigenResult eig,
                 std::size_t count);
  void recompute_ratios();

  std::vector<double> mean_;
  linalg::Matrix components_;  // dim × dim, column j = j-th axis
  std::vector<double> eigenvalues_;
  std::vector<double> explained_ratio_;
  std::size_t count_ = 0;  ///< rows behind the moments
};

}  // namespace flare::ml
