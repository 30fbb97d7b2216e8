#include "ml/cluster_quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/detail/dense_kernels.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {
namespace {

/// Shared silhouette kernel over an abstract distance lookup, so the cached
/// and uncached paths cannot drift apart. `row_fn(i)` returns a callable
/// `dist` with `dist(j)` = Euclidean distance between points i and j — the
/// indirection lets each path hoist its per-row state (matrix row pointer,
/// row span) out of the O(n) inner loop. Each point is independent, so the
/// outer loop parallelises without changing any value.
template <typename RowFn>
std::vector<double> silhouette_impl(std::size_t n, const RowFn& row_fn,
                                    const std::vector<std::size_t>& assignment,
                                    std::size_t num_clusters,
                                    util::ThreadPool* pool) {
  ensure(assignment.size() == n, "silhouette_samples: assignment size");
  ensure(num_clusters >= 2, "silhouette_samples: need at least two clusters");

  std::vector<std::size_t> sizes(num_clusters, 0);
  for (const std::size_t c : assignment) {
    ensure(c < num_clusters, "silhouette_samples: bad cluster id");
    ++sizes[c];
  }

  std::vector<double> scores(n, 0.0);
  util::maybe_parallel_for(pool, n, [&](std::size_t i) {
    if (sizes[assignment[i]] <= 1) {
      scores[i] = 0.0;  // singleton convention
      return;
    }
    // Accumulate this point's mean distance to every cluster. Splitting at
    // j == i removes the per-element branch; the accumulation order over j
    // is unchanged.
    const auto dist = row_fn(i);
    std::vector<double> cluster_dist(num_clusters, 0.0);
    for (std::size_t j = 0; j < i; ++j) {
      cluster_dist[assignment[j]] += dist(j);
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      cluster_dist[assignment[j]] += dist(j);
    }
    const std::size_t own = assignment[i];
    const double a = cluster_dist[own] / static_cast<double>(sizes[own] - 1);
    double b = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < num_clusters; ++c) {
      if (c == own || sizes[c] == 0) continue;
      b = std::min(b, cluster_dist[c] / static_cast<double>(sizes[c]));
    }
    const double denom = std::max(a, b);
    scores[i] = denom > 0.0 ? (b - a) / denom : 0.0;
  });
  return scores;
}

double mean_of(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

}  // namespace

PairwiseDistances pairwise_distances(const linalg::Matrix& data,
                                     util::ThreadPool* pool) {
  const std::size_t n = data.rows();
  const std::size_t dim = data.cols();
  const double* points = data.data().data();
  linalg::Matrix d(n, n);
  // Upper triangle first (rows are independent), mirror after the barrier.
  // Consecutive j's are paired so their FP chains overlap (dist2_raw2);
  // every entry still equals sqrt(squared_distance(row_i, row_j)) bit for
  // bit.
  util::maybe_parallel_for(pool, n, [&](std::size_t i) {
    const double* a = points + i * dim;
    double* out = &d(i, 0);
    std::size_t j = i + 1;
    for (; j + 1 < n; j += 2) {
      double d0;
      double d1;
      detail::dist2_raw2(a, points + j * dim, a, points + (j + 1) * dim, dim,
                         d0, d1);
      out[j] = std::sqrt(d0);
      out[j + 1] = std::sqrt(d1);
    }
    if (j < n) {
      out[j] = std::sqrt(detail::dist2_raw(a, points + j * dim, dim));
    }
  });
  util::maybe_parallel_for(pool, n, [&](std::size_t i) {
    for (std::size_t j = 0; j < i; ++j) d(i, j) = d(j, i);
  });
  return PairwiseDistances(std::move(d));
}

std::vector<double> silhouette_samples(const linalg::Matrix& data,
                                       const std::vector<std::size_t>& assignment,
                                       std::size_t num_clusters,
                                       util::ThreadPool* pool) {
  return silhouette_impl(
      data.rows(),
      [&](std::size_t i) {
        const auto a = data.row(i);
        return [&data, a](std::size_t j) {
          return std::sqrt(linalg::squared_distance(a, data.row(j)));
        };
      },
      assignment, num_clusters, pool);
}

std::vector<double> silhouette_samples(const PairwiseDistances& distances,
                                       const std::vector<std::size_t>& assignment,
                                       std::size_t num_clusters,
                                       util::ThreadPool* pool) {
  return silhouette_impl(
      distances.size(),
      [&](std::size_t i) {
        const double* row =
            distances.matrix().data().data() + i * distances.size();
        return [row](std::size_t j) { return row[j]; };
      },
      assignment, num_clusters, pool);
}

double silhouette_score(const linalg::Matrix& data,
                        const std::vector<std::size_t>& assignment,
                        std::size_t num_clusters, util::ThreadPool* pool) {
  return mean_of(silhouette_samples(data, assignment, num_clusters, pool));
}

double silhouette_score(const PairwiseDistances& distances,
                        const std::vector<std::size_t>& assignment,
                        std::size_t num_clusters, util::ThreadPool* pool) {
  return mean_of(silhouette_samples(distances, assignment, num_clusters, pool));
}

double silhouette_score_sampled(const linalg::Matrix& data,
                                const std::vector<std::size_t>& assignment,
                                std::size_t num_clusters,
                                std::size_t sample_size, std::uint64_t seed,
                                util::ThreadPool* pool) {
  ensure(sample_size >= 2, "silhouette_score_sampled: need a sample of >= 2");
  ensure(assignment.size() == data.rows(),
         "silhouette_score_sampled: assignment size");
  if (data.rows() <= sample_size) {
    return silhouette_score(data, assignment, num_clusters, pool);
  }
  // A sorted without-replacement sample keeps row gathering cache-friendly
  // and makes the estimate a pure function of (data, assignment, seed).
  stats::Rng rng(seed);
  std::vector<std::size_t> sample =
      rng.sample_without_replacement(data.rows(), sample_size);
  std::sort(sample.begin(), sample.end());
  const linalg::Matrix subset = data.select_rows(sample);
  std::vector<std::size_t> sub_assignment(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sub_assignment[i] = assignment[sample[i]];
  }
  return silhouette_score(subset, sub_assignment, num_clusters, pool);
}

}  // namespace flare::ml
