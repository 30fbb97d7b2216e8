// Sublinear K-means for the million-scenario regime (DESIGN.md §12).
//
// The exact solver (ml/kmeans.hpp) is O(n·k·d) per Lloyd
// iteration times restarts — linear passes over all n rows that the Fig. 9
// k-sweep repeats for every candidate k. At n ≈ 10^5–10^6 that dominates the
// pipeline. The sublinear path decouples the sweep cost from n:
//
//   1. *Lightweight coreset* (sensitivity sampling, Bachem et al.): sample m
//      rows with replacement from q(x) ∝ ½·w_x/W + ½·w_x·d(x, μ)²/Σ w d²
//      (μ = weighted mean) and give each sampled row weight w_x/(m·q(x)).
//      One O(n·d) pass; the coreset is an unbiased estimator of the full
//      weighted SSE objective for ANY candidate centroid set.
//   2. Run the existing exact weighted solver on the m-point coreset
//      (restarts, k-means++ — all inherited), m ≪ n.
//   3. *Refinement*: a few full-data Lloyd iterations via the same exact
//      solver, warm-started from the coreset centroids, so the final
//      centroids/assignment are anchored to the real population.
//
// Total cost ~O(n·d · refine_iters + m²-ish solver work) instead of
// O(n·k·d · iters · restarts) per sweep point. Everything is seeded and
// deterministic; co-membership against the exact solver is certified by the
// property harness (tests/scale/).
#pragma once

#include <cstdint>

#include "ml/kmeans.hpp"

namespace flare::ml {

struct CoresetParams {
  /// Target coreset size m (sampled with replacement; duplicates merge, so
  /// the matrix can come out slightly smaller). Clamped to ≥ 8·k by
  /// minibatch_kmeans so tiny coresets cannot starve the solver.
  std::size_t size = 2048;
  std::uint64_t seed = 42;
};

struct Coreset {
  linalg::Matrix points;                 ///< m′ × d (m′ ≤ requested size)
  std::vector<double> weights;           ///< Σ ≈ Σ point_weights (or n)
  std::vector<std::size_t> source_rows;  ///< row in the original data
};

/// Builds a lightweight coreset by sensitivity sampling. `point_weights`
/// empty = unweighted (every row weight 1). O(n·d) one pass + O(m log n)
/// sampling via a prefix-sum table.
[[nodiscard]] Coreset build_coreset(const linalg::Matrix& data,
                                    const CoresetParams& params,
                                    const std::vector<double>& point_weights = {});

struct MiniBatchKMeansParams {
  /// Solver parameters for the coreset solve (k, restarts, seeding)
  /// and the refinement pass (which forces restarts = 1 + warm start).
  KMeansParams kmeans;
  CoresetParams coreset;
  /// Full-data Lloyd polish iterations after the coreset solve. 0 = assign
  /// only (centroids stay the coreset optimum).
  int refine_iterations = 2;
};

/// Coreset + refine K-means (see file comment). Falls back to the exact
/// solver when the data is already coreset-sized. The result has full-data
/// assignment/point_distances/SSE, so representative extraction and the
/// estimator work unchanged.
[[nodiscard]] KMeansResult minibatch_kmeans(const linalg::Matrix& data,
                                            const MiniBatchKMeansParams& params,
                                            util::ThreadPool* pool = nullptr);

}  // namespace flare::ml
