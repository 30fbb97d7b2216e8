#include "ml/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "linalg/kernels.hpp"
#include "ml/detail/dense_kernels.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {
namespace {

using detail::dist2_raw;
using detail::dist2_raw2;
using linalg::Matrix;
using linalg::squared_distance;

// ---- The nearest-centroid scan ----

/// Points per register tile: the centroid column loaded for a coordinate
/// serves 4 points, whose 4 independent accumulators keep the adder busy.
constexpr std::size_t kTilePoints = 4;

/// Lane padding of the transposed centroids: every variant's 4-lane group.
constexpr std::size_t kLanePad = 4;

/// The centroids transposed: values[j · pitch + c] is coordinate j of
/// centroid c, with pitch = k rounded up to kLanePad. Lanes past k hold NaN,
/// so their distances are NaN and never win a strict <.
struct CentroidColumns {
  explicit CentroidColumns(const Matrix& centroids)
      : k(centroids.rows()),
        pitch((k + kLanePad - 1) / kLanePad * kLanePad),
        values(centroids.cols() * pitch, std::numeric_limits<double>::quiet_NaN()) {
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t j = 0; j < centroids.cols(); ++j) {
        values[j * pitch + c] = centroids(c, j);
      }
    }
  }
  std::size_t k;
  std::size_t pitch;
  std::vector<double> values;
};

/// One tile: points x[0..P) (row-major, `dim` wide) against every centroid.
using TileFn = void (*)(const double* x, std::size_t dim,
                        const CentroidColumns& cols, std::size_t* assignment,
                        double* dist2);

/// Folds a vector tile's per-lane winners into the naive loop's answer.
/// Lane l saw centroids l, l + L, l + 2L, … in ascending order with a strict
/// <, so it holds its lowest-index minimum (or DBL_MAX at index 0 if nothing
/// beat DBL_MAX); the lexicographic (distance, index) minimum over the lanes
/// is then the lowest-index minimum over all centroids.
template <std::size_t L>
void fold_lanes(const double* best, const std::int64_t* best_c,
                std::size_t& assignment, double& dist2) {
  std::size_t w = 0;
  for (std::size_t l = 1; l < L; ++l) {
    if (best[l] < best[w] || (best[l] == best[w] && best_c[l] < best_c[w])) w = l;
  }
  assignment = static_cast<std::size_t>(best_c[w]);
  dist2 = best[w];
}

/// The portable tile: 4 centroid lanes at a time, each distance summed over
/// j ascending, then folded into the running best in index order with a
/// strict <, exactly as the naive loop walks the centroids.
template <std::size_t P>
void scan_tile_baseline(const double* x, std::size_t dim,
                        const CentroidColumns& cols, std::size_t* assignment,
                        double* dist2) {
  constexpr std::size_t kLanes = 4;
  for (std::size_t p = 0; p < P; ++p) {
    assignment[p] = 0;
    dist2[p] = std::numeric_limits<double>::max();
  }
  for (std::size_t c0 = 0; c0 < cols.k; c0 += kLanes) {
    double acc[P][kLanes] = {};
    for (std::size_t j = 0; j < dim; ++j) {
      const double* cj = cols.values.data() + j * cols.pitch + c0;
      for (std::size_t p = 0; p < P; ++p) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double d = x[p * dim + j] - cj[l];
          acc[p][l] += d * d;
        }
      }
    }
    for (std::size_t p = 0; p < P; ++p) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (acc[p][l] < dist2[p]) {
          dist2[p] = acc[p][l];
          assignment[p] = c0 + l;
        }
      }
    }
  }
}

#if defined(__x86_64__)

/// The AVX2 tile: ymm acc[p] holds 4 centroid lanes of point p; each
/// coordinate is one subtract, one multiply and one add per lane (the
/// build's -ffp-contract=off keeps the pair unfused), and each lane keeps
/// its running best and index under a strict <.
template <std::size_t P>
__attribute__((target("avx2"))) void scan_tile_avx2(
    const double* x, std::size_t dim, const CentroidColumns& cols,
    std::size_t* assignment, double* dist2) {
  constexpr std::size_t kLanes = 4;
  __m256d best[P];
  __m256i best_c[P];
  for (std::size_t p = 0; p < P; ++p) {
    best[p] = _mm256_set1_pd(std::numeric_limits<double>::max());
    best_c[p] = _mm256_setzero_si256();
  }
  __m256i lane_c = _mm256_set_epi64x(3, 2, 1, 0);
  for (std::size_t c0 = 0; c0 < cols.k; c0 += kLanes) {
    __m256d acc[P];
    for (std::size_t p = 0; p < P; ++p) acc[p] = _mm256_setzero_pd();
    for (std::size_t j = 0; j < dim; ++j) {
      const __m256d cj = _mm256_loadu_pd(cols.values.data() + j * cols.pitch + c0);
#pragma GCC unroll 4
      for (std::size_t p = 0; p < P; ++p) {
        const __m256d d = _mm256_sub_pd(_mm256_set1_pd(x[p * dim + j]), cj);
        acc[p] = _mm256_add_pd(acc[p], _mm256_mul_pd(d, d));
      }
    }
    for (std::size_t p = 0; p < P; ++p) {
      const __m256d win = _mm256_cmp_pd(acc[p], best[p], _CMP_LT_OQ);
      best[p] = _mm256_blendv_pd(best[p], acc[p], win);
      best_c[p] = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(best_c[p]), _mm256_castsi256_pd(lane_c), win));
    }
    lane_c = _mm256_add_epi64(lane_c, _mm256_set1_epi64x(kLanes));
  }
  for (std::size_t p = 0; p < P; ++p) {
    alignas(32) double d[kLanes];
    alignas(32) std::int64_t c[kLanes];
    _mm256_store_pd(d, best[p]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(c), best_c[p]);
    fold_lanes<kLanes>(d, c, assignment[p], dist2[p]);
  }
}

#endif  // __x86_64__

/// Runs one scan variant: checks the shapes, transposes the centroids once and
/// runs the full tile over each 4-point group, the 1-point tile over the
/// n mod 4 tail.
template <TileFn Full, TileFn Single>
void scan_points(const Matrix& points, const Matrix& centroids,
                 std::span<std::size_t> assignment, std::span<double> dist2,
                 util::ThreadPool* pool) {
  ensure(centroids.rows() > 0, "nearest_centroids: no centroids");
  ensure(points.cols() == centroids.cols(),
         "nearest_centroids: dimension mismatch");
  ensure(assignment.size() == points.rows() && dist2.size() == points.rows(),
         "nearest_centroids: output size must match the point count");
  const CentroidColumns cols(centroids);
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  const double* x = points.data().data();
  util::maybe_parallel_for(
      pool, (n + kTilePoints - 1) / kTilePoints, [&](std::size_t t) {
        const std::size_t i0 = t * kTilePoints;
        if (i0 + kTilePoints <= n) {
          Full(x + i0 * dim, dim, cols, assignment.data() + i0,
               dist2.data() + i0);
          return;
        }
        for (std::size_t i = i0; i < n; ++i) {
          Single(x + i * dim, dim, cols, assignment.data() + i,
                 dist2.data() + i);
        }
      });
}

// ---- Seeding ----

/// Draws `k` seeding picks (row indices) under params.init. Random points:
/// a partial Fisher–Yates shuffle, one step per pick. k-means++: the first
/// pick uniform (or by weight), each next one by the D² distribution,
/// optionally weighted by per-point importance. Either way pick c's draw
/// comes from an RNG state that picks 0..c−1 alone fix, so the first j
/// picks of a k-pick draw are a j-pick draw.
std::vector<std::size_t> seed_picks(const Matrix& data, std::size_t k,
                                    const KMeansParams& params, stats::Rng& rng) {
  const std::size_t n = data.rows();
  if (params.init == KMeansInit::kRandomPoints) {
    return rng.sample_without_replacement(n, k);
  }
  const std::vector<double>& weights = params.weights;
  const std::size_t dim = data.cols();
  const double* points = data.data().data();
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  const auto w = [&](std::size_t i) { return weights.empty() ? 1.0 : weights[i]; };

  std::vector<std::size_t> picks;
  picks.reserve(k);
  std::size_t first = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  if (!weights.empty()) first = rng.weighted_index(weights);
  picks.push_back(first);
  for (std::size_t c = 1; c < k; ++c) {
    // D² against the previous pick, two points' distance chains interleaved
    // (dist2_raw2 gives each the bits of its own squared_distance call).
    const double* fresh = points + picks.back() * dim;
    std::size_t pair = 0;
    for (; pair + 1 < n; pair += 2) {
      double a;
      double b;
      dist2_raw2(points + pair * dim, fresh, points + (pair + 1) * dim, fresh, dim, a, b);
      d2[pair] = std::min(d2[pair], a);
      d2[pair + 1] = std::min(d2[pair + 1], b);
    }
    if (pair < n) d2[pair] = std::min(d2[pair], dist2_raw(points + pair * dim, fresh, dim));
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += d2[i] * w(i);
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
      // All points identical to existing centroids; any choice works.
      chosen = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    }
    picks.push_back(chosen);
  }
  return picks;
}

/// Throws FaultError naming the first non-finite cell of `m` (a `what`).
void reject_non_finite(const Matrix& m, const char* what) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(m(r, c))) {
        throw FaultError(std::string("kmeans: non-finite ") + what + " at row " +
                         std::to_string(r) + ", column " + std::to_string(c));
      }
    }
  }
}

/// The checks kmeans and kmeans_seeds share, for `k` clusters.
void check_inputs(const Matrix& data, const KMeansParams& params, std::size_t k) {
  ensure(k >= 1, "kmeans: k must be at least 1");
  ensure(data.rows() >= k, "kmeans: k exceeds the number of points");
  ensure(params.max_iterations > 0, "kmeans: max_iterations must be positive");
  ensure(params.restarts > 0, "kmeans: restarts must be positive");
  ensure(params.weights.empty() || params.weights.size() == data.rows(),
         "kmeans: weights must be empty or match the point count");
  // Non-finite input would turn centroids into NaN; reject it up front,
  // positioned.
  for (std::size_t i = 0; i < params.weights.size(); ++i) {
    if (!std::isfinite(params.weights[i])) {
      throw FaultError("kmeans: non-finite weight at row " + std::to_string(i));
    }
    ensure(params.weights[i] >= 0.0, "kmeans: weights must be non-negative");
  }
  reject_non_finite(data, "value");
}

// ---- Lloyd ----

struct LloydOutcome {
  Matrix centroids;
  std::vector<std::size_t> assignment;
  std::vector<double> dist2;  ///< squared distance to the assigned centroid
  double sse = 0.0;
  int iterations = 0;
  bool converged = false;
};

LloydOutcome run_lloyd(const Matrix& data, Matrix centroids,
                       const KMeansParams& params, util::ThreadPool* pool) {
  const std::size_t n = data.rows();
  const std::size_t k = params.k;
  const std::size_t dim = data.cols();
  const auto w = [&](std::size_t i) {
    return params.weights.empty() ? 1.0 : params.weights[i];
  };

  LloydOutcome out;
  out.assignment.assign(n, 0);
  out.dist2.assign(n, 0.0);
  // Reused across passes: the update's accumulators and the assignment
  // before the current pass.
  Matrix next(k, dim);
  std::vector<std::size_t> counts(k);
  std::vector<double> mass(k);
  std::vector<std::size_t> previous(n);
  bool repaired = false;  ///< did the last update re-seed a centroid?
  bool final_pass_done = false;  ///< `out` already holds the final centroids' pass
  // An assignment pass: the scan, then the (weighted) SSE reduced serially
  // in point order, so it is the same for every thread count.
  const auto assign = [&] {
    nearest_centroids(data, centroids, out.assignment, out.dist2, pool);
    out.sse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.sse += params.weights.empty() ? out.dist2[i] : out.dist2[i] * w(i);
    }
  };

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    std::copy(out.assignment.begin(), out.assignment.end(), previous.begin());
    assign();

    // Membership unchanged and the current centroids are plain means of that
    // membership (iter > 0, no repair): recomputing the update would rebuild
    // the exact same sums, so movement is exactly 0 — converged. The pass
    // just made is then also the final pass. (A repaired centroid is not a
    // mean, so its re-repair could pick a different point.)
    if (iter > 0 && !repaired && params.tolerance >= 0.0 &&
        out.assignment == previous) {
      out.iterations = iter + 1;
      out.converged = true;
      final_pass_done = true;
      break;
    }
    // Update step (weighted means when point weights are given; the
    // unweighted loop skips the ×1.0, which changes no bit).
    std::fill_n(&next(0, 0), k * dim, 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    std::fill(mass.begin(), mass.end(), 0.0);
    const double* points = data.data().data();
    if (params.weights.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = out.assignment[i];
        ++counts[c];
        const double* row = points + i * dim;
        double* acc = &next(c, 0);
        for (std::size_t j = 0; j < dim; ++j) acc[j] += row[j];
      }
      for (std::size_t c = 0; c < k; ++c) mass[c] = static_cast<double>(counts[c]);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = out.assignment[i];
        ++counts[c];
        mass[c] += w(i);
        const double* row = points + i * dim;
        double* acc = &next(c, 0);
        for (std::size_t j = 0; j < dim; ++j) acc[j] += row[j] * w(i);
      }
    }

    // Repair empty clusters: move their centroid to the point currently
    // farthest from its assigned centroid (splits the worst-fit region).
    repaired = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] > 0 && mass[c] > 0.0) {
        for (std::size_t j = 0; j < dim; ++j) {
          next(c, j) /= mass[c];
        }
        continue;
      }
      double worst = -1.0;
      std::size_t worst_i = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (out.dist2[i] > worst) {
          worst = out.dist2[i];
          worst_i = i;
        }
      }
      next.set_row(c, data.row(worst_i));
      repaired = true;
    }

    // Convergence: total squared centroid movement.
    double movement = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      movement += squared_distance(next.row(c), centroids.row(c));
    }
    std::swap(centroids, next);
    out.iterations = iter + 1;
    if (movement <= params.tolerance) {
      out.converged = true;
      break;
    }
  }

  // Final assignment against the final centroids (keeps sse consistent).
  if (!final_pass_done) assign();
  out.centroids = std::move(centroids);
  return out;
}

/// The best of params.restarts Lloyd runs: restart r starts from the rows
/// (*seeds)[r][0..k), or from fresh picks without `seeds`, and restart 0
/// from the warm centroids when there are k of them. Expects checked inputs.
KMeansResult best_of_restarts(const Matrix& data, const KMeansParams& params,
                              const KMeansSeeds* seeds, util::ThreadPool* pool) {
  const bool warm = params.initial_centroids.rows() == params.k;
  ensure(!warm || params.initial_centroids.cols() == data.cols(),
         "kmeans: initial_centroids dimension mismatch");
  if (warm) reject_non_finite(params.initial_centroids, "initial centroid");

  // Degrade to serial instead of deadlocking when a caller forwards the pool
  // from inside one of its own tasks (e.g. a per-k sweep worker).
  if (pool != nullptr && pool->on_worker_thread()) pool = nullptr;

  const stats::Rng rng(params.seed);
  const std::size_t restarts = static_cast<std::size_t>(params.restarts);
  std::vector<LloydOutcome> outcomes(restarts);
  const auto run_restart = [&](std::size_t r, util::ThreadPool* inner) {
    Matrix init;
    if (r == 0 && warm) {
      init = params.initial_centroids;
    } else if (seeds != nullptr) {
      init = data.select_rows(std::span((*seeds)[r]).first(params.k));
    } else {
      stats::Rng restart_rng = rng.fork(static_cast<std::uint64_t>(r));
      init = data.select_rows(seed_picks(data, params.k, params, restart_rng));
    }
    outcomes[r] = run_lloyd(data, std::move(init), params, inner);
  };
  if (pool != nullptr && restarts > 1) {
    // Restarts are fully independent (forked RNG streams), so they are the
    // natural parallel grain; each Lloyd then runs serially in its worker.
    util::parallel_for(*pool, restarts,
                       [&](std::size_t r) { run_restart(r, nullptr); });
  } else {
    for (std::size_t r = 0; r < restarts; ++r) run_restart(r, pool);
  }

  // Lowest SSE wins; scanning in restart order makes ties resolve to the
  // first restart, matching the serial loop regardless of thread count.
  std::size_t winner = 0;
  for (std::size_t r = 1; r < restarts; ++r) {
    if (outcomes[r].sse < outcomes[winner].sse) winner = r;
  }
  LloydOutcome& best = outcomes[winner];

  KMeansResult result;
  result.centroids = std::move(best.centroids);
  result.assignment = std::move(best.assignment);
  result.point_distances = std::move(best.dist2);
  result.sse = best.sse;
  result.iterations = best.iterations;
  result.converged = best.converged;
  result.cluster_sizes.assign(params.k, 0);
  for (const std::size_t c : result.assignment) ++result.cluster_sizes[c];
  return result;
}

}  // namespace

std::vector<std::size_t> KMeansResult::members_of(std::size_t c) const {
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] == c) members.push_back(i);
  }
  return members;
}

std::size_t KMeansResult::nearest_member(const linalg::Matrix& data,
                                         std::size_t c) const {
  ensure(c < centroids.rows(), "KMeansResult::nearest_member: cluster out of range");
  const bool cached = point_distances.size() == assignment.size();
  double best = std::numeric_limits<double>::max();
  std::size_t best_i = assignment.size();  // sentinel
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] != c) continue;
    const double d = cached ? point_distances[i]
                            : squared_distance(data.row(i), centroids.row(c));
    if (d < best) {
      best = d;
      best_i = i;
    }
  }
  ensure(best_i < assignment.size(), "KMeansResult::nearest_member: empty cluster");
  return best_i;
}

std::vector<std::size_t> KMeansResult::members_by_distance(const linalg::Matrix& data,
                                                           std::size_t c) const {
  const bool cached = point_distances.size() == assignment.size();
  std::vector<std::size_t> members = members_of(c);
  std::vector<double> dist(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    dist[m] = cached
                  ? point_distances[members[m]]
                  : squared_distance(data.row(members[m]), centroids.row(c));
  }
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return dist[a] < dist[b]; });
  std::vector<std::size_t> sorted(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) sorted[m] = members[order[m]];
  return sorted;
}

KMeansResult kmeans(const linalg::Matrix& data, const KMeansParams& params,
                    util::ThreadPool* pool) {
  check_inputs(data, params, params.k);
  return best_of_restarts(data, params, nullptr, pool);
}

KMeansSeeds kmeans_seeds(const linalg::Matrix& data, const KMeansParams& params,
                         std::size_t k_max, util::ThreadPool* pool) {
  check_inputs(data, params, k_max);
  if (pool != nullptr && pool->on_worker_thread()) pool = nullptr;
  const stats::Rng rng(params.seed);
  KMeansSeeds seeds(static_cast<std::size_t>(params.restarts));
  util::maybe_parallel_for(pool, seeds.size(), [&](std::size_t r) {
    stats::Rng restart_rng = rng.fork(static_cast<std::uint64_t>(r));
    seeds[r] = seed_picks(data, k_max, params, restart_rng);
  });
  return seeds;
}

KMeansResult kmeans(const linalg::Matrix& data, const KMeansParams& params,
                    const KMeansSeeds& seeds, util::ThreadPool* pool) {
  check_inputs(data, params, params.k);
  ensure(seeds.size() == static_cast<std::size_t>(params.restarts),
         "kmeans: seeds must hold one pick list per restart");
  for (const std::vector<std::size_t>& picks : seeds) {
    ensure(picks.size() >= params.k &&
               std::all_of(picks.begin(), picks.begin() + params.k,
                           [&](std::size_t i) { return i < data.rows(); }),
           "kmeans: each restart needs k seed picks that are rows");
  }
  return best_of_restarts(data, params, &seeds, pool);
}

void nearest_centroids(const linalg::Matrix& points, const linalg::Matrix& centroids,
                       std::span<std::size_t> assignment, std::span<double> dist2,
                       util::ThreadPool* pool) {
  if (linalg::detail::avx2_available()) {
    detail::nearest_centroids_avx2(points, centroids, assignment, dist2, pool);
  } else {
    detail::nearest_centroids_baseline(points, centroids, assignment, dist2, pool);
  }
}

namespace detail {

void nearest_centroids_baseline(const linalg::Matrix& points,
                                const linalg::Matrix& centroids,
                                std::span<std::size_t> assignment,
                                std::span<double> dist2, util::ThreadPool* pool) {
  scan_points<scan_tile_baseline<kTilePoints>, scan_tile_baseline<1>>(
      points, centroids, assignment, dist2, pool);
}

void nearest_centroids_avx2(const linalg::Matrix& points,
                            const linalg::Matrix& centroids,
                            std::span<std::size_t> assignment,
                            std::span<double> dist2, util::ThreadPool* pool) {
  ensure(linalg::detail::avx2_available(), "nearest_centroids: no AVX2");
#if defined(__x86_64__)
  scan_points<scan_tile_avx2<kTilePoints>, scan_tile_avx2<1>>(
      points, centroids, assignment, dist2, pool);
#endif
}

}  // namespace detail

}  // namespace flare::ml
