// Clustering quality measures used to choose the cluster count
// (FLARE §4.4 / Fig. 9): Sum of Squared Errors (elbow) and Silhouette Score.
//
// The silhouette is O(n²) in pairwise distances. A k-sweep evaluates it for
// every candidate k over the SAME fixed point set, so the distances can be
// computed once (`pairwise_distances`) and shared across the sweep — that
// single reuse removes the dominant cost of the Fig. 9 curve. All entry
// points accept an optional ThreadPool; parallel and serial runs produce
// bit-identical values (points are independent; means reduce in index order).
#pragma once

#include <cstdint>

#include "linalg/matrix.hpp"

namespace flare::ml {

/// Precomputed n×n Euclidean (not squared) distance matrix, shared across a
/// cluster-count sweep. Symmetric with a zero diagonal.
class PairwiseDistances {
 public:
  PairwiseDistances() = default;

  [[nodiscard]] std::size_t size() const { return d_.rows(); }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    return d_(i, j);
  }
  [[nodiscard]] const linalg::Matrix& matrix() const { return d_; }

 private:
  friend PairwiseDistances pairwise_distances(const linalg::Matrix& data,
                                              util::ThreadPool* pool);
  explicit PairwiseDistances(linalg::Matrix d) : d_(std::move(d)) {}

  linalg::Matrix d_;
};

/// Computes all pairwise Euclidean distances (upper triangle in parallel,
/// then mirrored). Each entry equals sqrt(squared_distance(row_i, row_j)) —
/// the exact value the uncached silhouette computes on the fly.
[[nodiscard]] PairwiseDistances pairwise_distances(const linalg::Matrix& data,
                                                   util::ThreadPool* pool = nullptr);

/// Mean silhouette over all points, in [-1, 1]. Points in singleton clusters
/// contribute 0 (the standard convention). O(n²) pairwise distances — use
/// the PairwiseDistances overload when scoring several clusterings of the
/// same points (e.g. the Fig. 9 k-sweep).
[[nodiscard]] double silhouette_score(const linalg::Matrix& data,
                                      const std::vector<std::size_t>& assignment,
                                      std::size_t num_clusters,
                                      util::ThreadPool* pool = nullptr);

/// Silhouette score over a precomputed distance matrix; bit-identical to the
/// raw-data overload on the matrix `distances` was built from.
[[nodiscard]] double silhouette_score(const PairwiseDistances& distances,
                                      const std::vector<std::size_t>& assignment,
                                      std::size_t num_clusters,
                                      util::ThreadPool* pool = nullptr);

/// Per-point silhouette values (same conventions as silhouette_score).
[[nodiscard]] std::vector<double> silhouette_samples(
    const linalg::Matrix& data, const std::vector<std::size_t>& assignment,
    std::size_t num_clusters, util::ThreadPool* pool = nullptr);

/// Per-point silhouettes over a precomputed distance matrix.
[[nodiscard]] std::vector<double> silhouette_samples(
    const PairwiseDistances& distances, const std::vector<std::size_t>& assignment,
    std::size_t num_clusters, util::ThreadPool* pool = nullptr);

/// Sampled silhouette estimator for the out-of-core regime: restricts the
/// computation to `sample_size` rows drawn without replacement (seeded,
/// deterministic) and scores the induced sub-clustering with the exact
/// kernel — O(s²·d) instead of O(n²·d), and no n×n distance cache. Degrades
/// to the exact score when n ≤ sample_size. Callers must surface that the
/// value is an estimate (see core::ClusterQualityPoint::silhouette_estimated).
[[nodiscard]] double silhouette_score_sampled(
    const linalg::Matrix& data, const std::vector<std::size_t>& assignment,
    std::size_t num_clusters, std::size_t sample_size, std::uint64_t seed,
    util::ThreadPool* pool = nullptr);

}  // namespace flare::ml
