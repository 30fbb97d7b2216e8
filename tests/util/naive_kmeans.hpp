// The naive K-means that ml::kmeans must reproduce bit for bit, kept only
// as a test oracle: k-means++ seeding with a plain D² refresh per pick, and
// Lloyd passes that measure every point against every centroid with
// linalg::squared_distance under a running strict-< best that starts at
// DBL_MAX and index 0, so the lowest index wins a tie. The pass structure
// (unchanged-membership convergence, empty-cluster repair, final pass) and
// the RNG draws are ml::kmeans'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/kmeans.hpp"
#include "stats/rng.hpp"

namespace flare::testing {

/// The naive nearest-centroid loop.
inline void naive_nearest(const linalg::Matrix& points,
                          const linalg::Matrix& centroids,
                          std::vector<std::size_t>& assignment,
                          std::vector<double>& dist2) {
  assignment.assign(points.rows(), 0);
  dist2.assign(points.rows(), 0.0);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    double best = std::numeric_limits<double>::max();
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < centroids.rows(); ++c) {
      const double d = linalg::squared_distance(points.row(i), centroids.row(c));
      if (d < best) {
        best = d;
        best_c = c;
      }
    }
    assignment[i] = best_c;
    dist2[i] = best;
  }
}

namespace naive_kmeans_detail {

inline linalg::Matrix seed_kmeanspp(const linalg::Matrix& data, std::size_t k,
                                    const std::vector<double>& weights,
                                    stats::Rng& rng) {
  const std::size_t n = data.rows();
  const auto w = [&](std::size_t i) { return weights.empty() ? 1.0 : weights[i]; };
  linalg::Matrix centroids(k, data.cols());
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  std::size_t first = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  if (!weights.empty()) first = rng.weighted_index(weights);
  centroids.set_row(0, data.row(first));
  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = linalg::squared_distance(data.row(i), centroids.row(c - 1));
      if (d < d2[i]) d2[i] = d;
      total += d2[i] * w(i);
    }
    std::size_t chosen = 0;
    if (total > 0.0) {
      double target = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= d2[i] * w(i);
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    }
    centroids.set_row(c, data.row(chosen));
  }
  return centroids;
}

inline linalg::Matrix seed_random(const linalg::Matrix& data, std::size_t k,
                                  stats::Rng& rng) {
  const std::vector<std::size_t> picks =
      rng.sample_without_replacement(data.rows(), k);
  linalg::Matrix centroids(k, data.cols());
  for (std::size_t c = 0; c < k; ++c) centroids.set_row(c, data.row(picks[c]));
  return centroids;
}

inline double sse_of(const std::vector<double>& dist2,
                     const std::vector<double>& weights) {
  double sse = 0.0;
  for (std::size_t i = 0; i < dist2.size(); ++i) {
    sse += weights.empty() ? dist2[i] : dist2[i] * weights[i];
  }
  return sse;
}

inline ml::KMeansResult lloyd(const linalg::Matrix& data, linalg::Matrix centroids,
                              const ml::KMeansParams& params) {
  const std::size_t n = data.rows();
  const std::size_t k = params.k;
  const std::size_t dim = data.cols();
  const auto w = [&](std::size_t i) {
    return params.weights.empty() ? 1.0 : params.weights[i];
  };
  ml::KMeansResult out;
  out.assignment.assign(n, 0);
  bool repaired = false;
  bool final_pass_done = false;
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    const std::vector<std::size_t> previous = out.assignment;
    naive_nearest(data, centroids, out.assignment, out.point_distances);
    out.sse = sse_of(out.point_distances, params.weights);
    if (iter > 0 && !repaired && params.tolerance >= 0.0 &&
        out.assignment == previous) {
      out.iterations = iter + 1;
      out.converged = true;
      final_pass_done = true;
      break;
    }
    linalg::Matrix next(k, dim);
    std::vector<std::size_t> counts(k, 0);
    std::vector<double> mass(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = out.assignment[i];
      ++counts[c];
      if (params.weights.empty()) {
        for (std::size_t j = 0; j < dim; ++j) next(c, j) += data(i, j);
      } else {
        mass[c] += w(i);
        for (std::size_t j = 0; j < dim; ++j) next(c, j) += data(i, j) * w(i);
      }
    }
    if (params.weights.empty()) {
      for (std::size_t c = 0; c < k; ++c) mass[c] = static_cast<double>(counts[c]);
    }
    repaired = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] > 0 && mass[c] > 0.0) {
        for (std::size_t j = 0; j < dim; ++j) next(c, j) /= mass[c];
        continue;
      }
      double worst = -1.0;
      std::size_t worst_i = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (out.point_distances[i] > worst) {
          worst = out.point_distances[i];
          worst_i = i;
        }
      }
      next.set_row(c, data.row(worst_i));
      repaired = true;
    }
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      movement += linalg::squared_distance(next.row(c), centroids.row(c));
    }
    centroids = next;
    out.iterations = iter + 1;
    if (movement <= params.tolerance) {
      out.converged = true;
      break;
    }
  }
  if (!final_pass_done) {
    naive_nearest(data, centroids, out.assignment, out.point_distances);
    out.sse = sse_of(out.point_distances, params.weights);
  }
  out.centroids = std::move(centroids);
  out.cluster_sizes.assign(k, 0);
  for (const std::size_t c : out.assignment) ++out.cluster_sizes[c];
  return out;
}

}  // namespace naive_kmeans_detail

/// ml::kmeans(data, params) by the naive loops, serially (valid input only:
/// no argument checks).
inline ml::KMeansResult naive_kmeans(const linalg::Matrix& data,
                                     const ml::KMeansParams& params) {
  namespace nd = naive_kmeans_detail;
  const bool warm = params.initial_centroids.rows() == params.k;
  const stats::Rng rng(params.seed);
  ml::KMeansResult best;
  for (int r = 0; r < params.restarts; ++r) {
    linalg::Matrix init;
    if (r == 0 && warm) {
      init = params.initial_centroids;
    } else {
      stats::Rng restart_rng = rng.fork(static_cast<std::uint64_t>(r));
      init = params.init == ml::KMeansInit::kKMeansPlusPlus
                 ? nd::seed_kmeanspp(data, params.k, params.weights, restart_rng)
                 : nd::seed_random(data, params.k, restart_rng);
    }
    ml::KMeansResult run = nd::lloyd(data, std::move(init), params);
    if (r == 0 || run.sse < best.sse) best = std::move(run);
  }
  return best;
}

}  // namespace flare::testing
