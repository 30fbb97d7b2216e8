// K-means clustering (FLARE §4.4) with k-means++ seeding and best-of-N
// restarts. The paper groups 895 whitened scenario vectors into 18 clusters
// and takes the member nearest each centroid as the representative scenario.
//
// The assignment step prunes with lower bounds carried across Lloyd passes
// and the triangle inequality: one bound per (point, centroid) pair (Elkan)
// while n·k doubles fit a 1 MiB working set, one per point (Hamerly) beyond
// it, and centroid–centroid distance tests, so most of the k distance
// evaluations per point are skipped. Pruning only ever skips
// provably-losing candidates, so the output is bit-identical to the naive
// scan (`KMeansParams::prune` toggles it for verification/benchmarks).
#pragma once

#include <cstdint>
#include <optional>

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
  /// Triangle-inequality pruning of the assignment step. Output is identical
  /// with or without it; off exists for tests and speedup benchmarks.
  bool prune = true;
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

}  // namespace flare::ml
