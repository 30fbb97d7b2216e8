// K-means clustering (FLARE §4.4) with k-means++ seeding and best-of-N
// restarts. The paper groups 895 whitened scenario vectors into 18 clusters
// and takes the member nearest each centroid as the representative scenario.
//
// Every Lloyd pass assigns points with one exact scan (nearest_centroids):
// each point's distance to every centroid, computed in register tiles with
// linalg::squared_distance's operations in its order, and the lowest index
// winning a tie, so the result is the naive loop's bit for bit. A k-sweep
// seeds each restart once at its largest k (kmeans_seeds) and starts every
// k from a prefix of those picks, which are the picks kmeans would draw at
// that k.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace flare::ml {

enum class KMeansInit : std::uint8_t {
  kKMeansPlusPlus,  ///< D² weighted seeding (default; the robust choice)
  kRandomPoints,    ///< uniform sample of data points (ablation baseline)
};

struct KMeansParams {
  std::size_t k = 8;
  int max_iterations = 300;
  int restarts = 8;              ///< independent inits; the lowest-SSE run wins
  double tolerance = 1e-7;       ///< stop when centroid movement² falls below
  std::uint64_t seed = 42;
  KMeansInit init = KMeansInit::kKMeansPlusPlus;
  /// Optional warm start: when this holds exactly `k` rows, restart 0 skips
  /// the seeding policy and starts Lloyd from these centroids verbatim (the
  /// remaining restarts seed as usual, so a poor warm start can only lose
  /// the best-of-N race, never degrade it). Any other row count — including
  /// empty, the default — is ignored, so a caller can set one seed while
  /// sweeping several k.
  linalg::Matrix initial_centroids;
  /// Optional per-point weights (e.g. scenario observation time). Empty =
  /// unweighted (the paper's design). When set, centroids are weighted means,
  /// SSE is weighted, and k-means++ seeding draws by weight × D².
  std::vector<double> weights;
};

struct KMeansResult {
  linalg::Matrix centroids;            ///< k × dim
  std::vector<std::size_t> assignment; ///< cluster id per input row
  std::vector<std::size_t> cluster_sizes;
  /// Squared distance from each point to its winning centroid, as computed
  /// by the final assignment pass. Lets nearest_member/members_by_distance
  /// answer without rescanning the data.
  std::vector<double> point_distances;
  double sse = 0.0;                    ///< sum of squared point-to-centroid distances
  int iterations = 0;                  ///< Lloyd iterations of the winning restart
  bool converged = false;

  /// Indices of the rows belonging to cluster `c`.
  [[nodiscard]] std::vector<std::size_t> members_of(std::size_t c) const;

  /// Row index of the member nearest the centroid of cluster `c` —
  /// FLARE's representative scenario for that cluster. Uses the cached
  /// `point_distances` when present; `data` is only touched as a fallback
  /// (e.g. results adapted from other algorithms).
  [[nodiscard]] std::size_t nearest_member(const linalg::Matrix& data,
                                           std::size_t c) const;

  /// Members of `c` ordered by increasing distance from its centroid —
  /// used by the per-job estimator's "next nearest scenario" walk (§5.3).
  [[nodiscard]] std::vector<std::size_t> members_by_distance(
      const linalg::Matrix& data, std::size_t c) const;
};

/// Runs Lloyd's algorithm. Throws std::invalid_argument when k is zero or
/// exceeds the number of rows, and FaultError (naming the row and column)
/// on a non-finite data cell, weight or warm-start centroid. Empty clusters
/// are repaired by re-seeding the centroid at the point farthest from its
/// assigned centroid.
///
/// With a `pool`, restarts run concurrently (each restart forks its own
/// deterministic RNG stream, so the winner is thread-count-independent);
/// a single restart instead parallelises the assignment step over points.
/// Results are bit-identical for every thread count, including pool == null.
[[nodiscard]] KMeansResult kmeans(const linalg::Matrix& data, const KMeansParams& params,
                                  util::ThreadPool* pool = nullptr);

/// Each restart's seeding picks (row indices of the data), restart by restart.
using KMeansSeeds = std::vector<std::vector<std::size_t>>;

/// Draws the first `k_max` seeding picks of every restart of `params` (its
/// init, seed, restarts and weights; params.k is ignored). Pick c's draw
/// comes from an RNG state that picks 0..c−1 alone fix, so the first k picks
/// are exactly those kmeans draws at k: one draw at a sweep's largest k
/// seeds every k. Throws like kmeans, with k_max in place of k. Restarts
/// draw concurrently on `pool`, to the same picks for every thread count.
[[nodiscard]] KMeansSeeds kmeans_seeds(const linalg::Matrix& data,
                                       const KMeansParams& params, std::size_t k_max,
                                       util::ThreadPool* pool = nullptr);

/// kmeans(data, params, pool), restart r starting from the rows
/// seeds[r][0..k) instead of fresh picks (restart 0 still takes a warm
/// start), so seeds from kmeans_seeds over the same data and params give
/// its result bit for bit. Throws std::invalid_argument unless `seeds`
/// holds, for every restart, at least k picks that are rows.
[[nodiscard]] KMeansResult kmeans(const linalg::Matrix& data, const KMeansParams& params,
                                  const KMeansSeeds& seeds,
                                  util::ThreadPool* pool = nullptr);

/// The nearest-centroid scan of every Lloyd pass and of
/// core::stages::assign_to_nearest: assignment[i] is the index of the row of
/// `centroids` nearest row i of `points`, dist2[i] its squared distance.
/// The result is the naive loop's bit for bit: each distance sums
/// (x_j − c_j)² over j ascending from 0.0 with a separate multiply and add,
/// and a strict-< best from DBL_MAX at index 0 takes the centroids in index
/// order, so the lowest index wins a tie. The centroids are transposed into
/// dim × 4-lane columns once per call, and register tiles of 4 points × 4
/// centroid lanes (AVX2 ymm registers, or plain doubles in the portable
/// baseline) accumulate distances; the variant is chosen once per process
/// from the CPU. Tasks own 4-point
/// tiles, so `pool` changes no bit. Throws std::invalid_argument on a shape
/// mismatch or no centroids.
void nearest_centroids(const linalg::Matrix& points, const linalg::Matrix& centroids,
                       std::span<std::size_t> assignment, std::span<double> dist2,
                       util::ThreadPool* pool = nullptr);

namespace detail {

/// The scan's variants, callable directly so tests check each one the CPU
/// runs. The AVX2 one throws std::invalid_argument unless
/// linalg::detail::avx2_available().
using NearestCentroidsFn = void(const linalg::Matrix& points,
                                const linalg::Matrix& centroids,
                                std::span<std::size_t> assignment,
                                std::span<double> dist2, util::ThreadPool* pool);
NearestCentroidsFn nearest_centroids_baseline;
NearestCentroidsFn nearest_centroids_avx2;

}  // namespace detail

}  // namespace flare::ml
