#include "ml/minibatch_kmeans.hpp"

#include <algorithm>
#include <map>

#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {

Coreset build_coreset(const linalg::Matrix& data, const CoresetParams& params,
                      const std::vector<double>& point_weights) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  ensure(n > 0, "build_coreset: empty data");
  ensure(params.size > 0, "build_coreset: coreset size must be positive");
  ensure(point_weights.empty() || point_weights.size() == n,
         "build_coreset: weight count must match rows");
  const auto weight_of = [&](std::size_t i) {
    return point_weights.empty() ? 1.0 : point_weights[i];
  };

  // Weighted mean and per-point squared distance to it — the sensitivity
  // proxy of the lightweight construction.
  std::vector<double> mean(d, 0.0);
  double total_weight = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weight_of(i);
    ensure(w >= 0.0, "build_coreset: weights must be non-negative");
    total_weight += w;
    const std::span<const double> row = data.row(i);
    for (std::size_t c = 0; c < d; ++c) mean[c] += w * row[c];
  }
  ensure(total_weight > 0.0, "build_coreset: zero total weight");
  for (double& m : mean) m /= total_weight;

  std::vector<double> dist_sq(n, 0.0);
  double total_dist = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    dist_sq[i] = linalg::squared_distance(data.row(i), mean);
    total_dist += weight_of(i) * dist_sq[i];
  }

  // q(x) ∝ ½ w/W + ½ w·d²/Σwd², as a prefix-sum table for O(log n) draws.
  // Degenerate data (all rows at the mean) collapses to the uniform half.
  std::vector<double> cumulative(n);
  double running = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weight_of(i);
    double q = 0.5 * w / total_weight;
    if (total_dist > 0.0) {
      q += 0.5 * w * dist_sq[i] / total_dist;
    } else {
      q += 0.5 * w / total_weight;
    }
    running += q;
    cumulative[i] = running;
  }

  // Sample with replacement; merge duplicates (their estimator weights add).
  stats::Rng rng(params.seed);
  const double m = static_cast<double>(params.size);
  std::map<std::size_t, double> merged;  // ordered: deterministic row order
  for (std::size_t s = 0; s < params.size; ++s) {
    const double u = rng.uniform() * running;
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    const std::size_t idx = std::min(i, n - 1);
    const double q = (idx == 0 ? cumulative[0]
                               : cumulative[idx] - cumulative[idx - 1]) /
                     running;
    merged[idx] += weight_of(idx) / (m * q);
  }

  Coreset coreset;
  coreset.points = linalg::Matrix(merged.size(), d);
  coreset.weights.reserve(merged.size());
  coreset.source_rows.reserve(merged.size());
  std::size_t r = 0;
  for (const auto& [idx, weight] : merged) {
    coreset.points.set_row(r, data.row(idx));
    coreset.weights.push_back(weight);
    coreset.source_rows.push_back(idx);
    ++r;
  }
  return coreset;
}

KMeansResult minibatch_kmeans(const linalg::Matrix& data,
                              const MiniBatchKMeansParams& params,
                              util::ThreadPool* pool) {
  const std::size_t k = params.kmeans.k;
  ensure(k > 0, "minibatch_kmeans: k must be positive");
  ensure(k <= data.rows(), "minibatch_kmeans: k exceeds the number of rows");

  CoresetParams coreset_params = params.coreset;
  coreset_params.size = std::max(coreset_params.size, 8 * k);
  if (data.rows() <= coreset_params.size) {
    // The data is already coreset-sized — the exact solver IS the cheap path.
    return kmeans(data, params.kmeans, pool);
  }

  const Coreset coreset =
      build_coreset(data, coreset_params, params.kmeans.weights);
  if (coreset.points.rows() < k) {
    // Pathologically duplicated data collapsed the coreset below k distinct
    // rows; the exact solver on the full data is the only sound answer.
    return kmeans(data, params.kmeans, pool);
  }

  // Exact weighted solve on the coreset: restarts and seeding inherited.
  KMeansParams coreset_solve = params.kmeans;
  coreset_solve.weights = coreset.weights;
  coreset_solve.initial_centroids = linalg::Matrix();  // coreset seeds itself
  const KMeansResult sketch = kmeans(coreset.points, coreset_solve, pool);

  // Full-data refinement through the exact solver (its scan keeps no
  // per-point state beyond the assignment, so memory stays O(n) at any
  // scale): warm-start from the coreset centroids, few iterations, single
  // restart (a fresh k-means++ restart here would cost exactly the
  // full-data solve we are avoiding).
  KMeansParams refine = params.kmeans;
  refine.initial_centroids = sketch.centroids;
  refine.restarts = 1;
  refine.max_iterations = std::max(1, params.refine_iterations);
  return kmeans(data, refine, pool);
}

}  // namespace flare::ml
