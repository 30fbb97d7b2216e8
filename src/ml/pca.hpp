// Principal Component Analysis (FLARE §4.3).
//
// The paper standardises the refined metrics, extracts PCs via the covariance
// eigendecomposition, keeps enough components to explain 95 % of variance
// (18 in their datacenter), and then *interprets* each PC through its signed
// loadings (Fig. 8). This class exposes exactly those pieces: scores,
// explained-variance ratios, and per-component loadings.
//
// Beyond the batch fit, `update()` folds fresh rows into the fitted basis
// with a block Brand-style eigenbasis update (see DESIGN.md §9): the merged
// covariance is assembled *in the current eigenbasis*, where it is
// near-diagonal, and diagonalised by a Householder + implicit-QL solve
// (linalg::symmetric_eigen_ql) instead of re-reading every historical row;
// the batch fit keeps the cold Jacobi solve, whose bits are pinned. The
// update is algebraically exact — up to floating-point rounding it matches a
// from-scratch fit over the concatenated rows — and the class tracks the
// principal angle between the current basis and a caller-chosen *anchor*
// subspace so the ingest path can gate a full refit on accumulated drift.
#pragma once

#include "linalg/matrix.hpp"

namespace flare::ml {

class Standardizer;

/// Telemetry for one incremental eigenbasis update.
struct PcaUpdateStats {
  std::size_t batch_rows = 0;   ///< rows folded in by this call
  std::size_t total_rows = 0;   ///< observations behind the basis afterwards
  double mean_shift = 0.0;      ///< ‖batch mean − running mean‖₂ before folding
  double subspace_drift = 0.0;  ///< sin(max principal angle) vs anchor afterwards
};

class Pca {
 public:
  /// Fits on a data matrix (rows = observations). The input is expected to be
  /// standardised already (the Analyzer composes Standardizer -> Pca).
  /// `pool` parallelises the covariance rank-k update; results are identical
  /// for every thread count (see linalg::covariance_matrix).
  /// Throws util::NumericalError when rows < cols: the sample covariance is
  /// then rank-deficient and the trailing eigenpairs are unidentifiable.
  void fit(const linalg::Matrix& data, util::ThreadPool* pool = nullptr);

  /// Folds a batch of fresh rows (same coordinate frame as the fit data) into
  /// the eigenbasis without revisiting historical rows. `batch_moments` must
  /// be a Standardizer fitted over exactly `batch`'s rows — the same Welford
  /// moments `Standardizer::merge` folds, so streamed ingest maintains both
  /// structures from one profiling pass. Matches a from-scratch fit over the
  /// concatenated rows up to floating-point rounding (property-tested bound:
  /// subspace angle ≤ 1e-6, explained-variance ratios within 1e-8 after ≥ 8
  /// batches). Cost is O((n_batch + d)·d²) versus O(n_total·d²) plus a cold
  /// eigensolve for a refit.
  PcaUpdateStats update(const linalg::Matrix& batch,
                        const Standardizer& batch_moments,
                        util::ThreadPool* pool = nullptr);

  /// Convenience overload that fits the batch moments internally.
  PcaUpdateStats update(const linalg::Matrix& batch,
                        util::ThreadPool* pool = nullptr);

  /// Fits from an externally accumulated covariance instead of raw rows —
  /// the out-of-core path assembles the covariance of the standardised kept
  /// columns (their correlation matrix) in one streaming comoment pass and
  /// never materialises the data fit() would need. `mean` is the per-variable
  /// mean of the (virtual) fit data and `count` its row count; eigensolve,
  /// sign fixing and ratio bookkeeping match fit() exactly.
  void fit_from_covariance(std::vector<double> mean,
                           const linalg::Matrix& covariance, std::size_t count);

  /// Projects data onto the principal axes: scores = (x - mean) · V.
  /// Returns all components; callers slice with `num_components_for`.
  [[nodiscard]] linalg::Matrix transform(const linalg::Matrix& data) const;

  /// Projects onto the first `k` components only.
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

  /// Anchors the current leading-`k` subspace as the drift reference — the
  /// projection basis a caller keeps using while updates accumulate. Resets
  /// subspace_drift() to zero; call again after any refit ("rebase").
  void set_drift_anchor(std::size_t k);

  [[nodiscard]] bool has_drift_anchor() const { return anchor_.cols() > 0; }
  [[nodiscard]] std::size_t drift_anchor_components() const {
    return anchor_.cols();
  }

  /// sin of the largest principal angle between the anchored subspace and the
  /// current leading-k eigenbasis (0 when unanchored). A small value means
  /// scores projected through the anchor remain faithful to the updated
  /// covariance; core/drift.cpp gates warm refits on it.
  [[nodiscard]] double subspace_drift() const { return drift_; }

  /// Observations behind the fitted moments (fit sets it, update accumulates).
  [[nodiscard]] std::size_t observations() const { return count_; }

  /// Per-variable mean of every observation folded in so far.
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }

  [[nodiscard]] std::size_t dimension() const { return mean_.size(); }
  [[nodiscard]] bool fitted() const { return !mean_.empty(); }

 private:
  void recompute_ratios();
  [[nodiscard]] double drift_against_anchor() const;

  std::vector<double> mean_;
  linalg::Matrix components_;  // dim × dim, column j = j-th axis
  std::vector<double> eigenvalues_;
  std::vector<double> explained_ratio_;
  std::size_t count_ = 0;   ///< rows behind the moments
  linalg::Matrix anchor_;   ///< dim × k reference subspace for drift tracking
  double drift_ = 0.0;      ///< cached drift_against_anchor() after updates
};

}  // namespace flare::ml
