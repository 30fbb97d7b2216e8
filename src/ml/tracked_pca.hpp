// The tracked PCA eigenbasis behind streamed ingest (DESIGN.md §9).
//
// Every ingest batch is folded into a shadow of the analysis basis, so the
// pipeline can tell how far the covariance has rotated away from the basis
// it projects with. The fold is a block Brand-style update: the merged
// covariance is kept *in the frame V₀ of the last materialised basis* — the
// full covariance is V₀·M·Vᵀ₀ — where it stays near-diagonal, and Chan's
// scatter merge folds each batch into M without re-reading historical rows.
// The frame itself never rotates per batch. A fold solves only what the
// drift gate reads: the spectrum and the k leading eigenvectors of M
// (linalg::symmetric_eigen_leading, k = the anchored component count). The
// full basis — every eigenpair of M by linalg::symmetric_eigen_ql, rotated
// to V₀·W and sign-fixed — is built only on request (materialize()), which
// only a splice refit makes. Up to floating-point rounding the result
// matches a from-scratch fit over the concatenated rows.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/pca.hpp"

namespace flare::ml {

class Standardizer;

/// Telemetry for one fold.
struct PcaUpdateStats {
  std::size_t batch_rows = 0;   ///< rows folded in by this call
  std::size_t total_rows = 0;   ///< observations behind the basis afterwards
  double mean_shift = 0.0;      ///< ‖batch mean − running mean‖₂ before folding
  double subspace_drift = 0.0;  ///< sin(max principal angle) vs anchor afterwards
};

class TrackedPca {
 public:
  TrackedPca() = default;

  /// Starts tracking from a fitted basis: V₀ is its component matrix, M the
  /// diagonal of its eigenvalues, and drift is anchored at its leading
  /// `anchor_components` axes (drift() == 0). Re-anchoring is constructing
  /// anew. Throws std::invalid_argument when `basis` is not fitted or the
  /// count is outside [1, dimension].
  TrackedPca(const Pca& basis, std::size_t anchor_components);

  /// Folds a batch of fresh rows (same coordinate frame as the basis)
  /// without revisiting historical rows. `batch_moments` must be a
  /// Standardizer fitted over exactly `batch`'s rows, so streamed ingest
  /// takes the batch's moments from one profiling pass. Cost O(n_batch·d²)
  /// for the merge plus the leading-k eigensolve of the d × d M.
  PcaUpdateStats fold(const linalg::Matrix& batch,
                      const Standardizer& batch_moments,
                      util::ThreadPool* pool = nullptr);

  /// The full basis behind every row folded so far, as a fitted Pca
  /// (property-tested against a from-scratch fit: subspace angle ≤ 1e-6,
  /// explained-variance ratios within 1e-8 after 8 batches). O(d³).
  [[nodiscard]] Pca materialize(util::ThreadPool* pool = nullptr) const;

  /// sin of the largest principal angle between the anchored subspace and
  /// the current leading-k eigenbasis. A small value means scores projected
  /// through the anchor remain faithful to the updated covariance;
  /// core/drift.cpp gates warm refits on it.
  [[nodiscard]] double drift() const { return drift_; }
  [[nodiscard]] std::size_t anchor_components() const { return anchor_components_; }

  /// Observations behind the tracked moments.
  [[nodiscard]] std::size_t observations() const { return count_; }
  /// Per-variable mean of every observation folded in so far.
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }
  [[nodiscard]] std::size_t dimension() const { return mean_.size(); }
  [[nodiscard]] bool fitted() const { return !mean_.empty(); }

 private:
  std::vector<double> mean_;
  linalg::Matrix frame_;       ///< V₀: d × d, the basis tracking started from
  linalg::Matrix covariance_;  ///< M: the merged covariance in V₀ coordinates
  std::size_t count_ = 0;
  std::size_t anchor_components_ = 0;
  double drift_ = 0.0;
};

}  // namespace flare::ml
