#include "ml/kmeans.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "ml/detail/dense_kernels.hpp"
#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {
namespace {

using detail::dist2_raw;
using detail::dist2_raw2;
using detail::dist2_raw4;
using linalg::Matrix;
using linalg::squared_distance;

/// Skip margin for the triangle-inequality prune: centroid c provably cannot
/// beat the current best when d(best_c, c) >= 2·d(x, best_c), i.e.
/// cdist2 >= 4·best in squared terms. The 1e-9 relative slack dwarfs the
/// ~1e-15 rounding error of squared_distance, so every skip is proven
/// *strictly* — a skipped candidate's true distance always exceeds `best`,
/// never ties it — and pruned results match the naive scan bit for bit.
constexpr double kPruneMargin = 4.0 + 1e-9;

/// Picks initial centroids with the k-means++ D² distribution (optionally
/// weighted by per-point importance). With `prune`, the D² refresh skips
/// points whose nearest centroid already proves the new centroid is farther
/// (min unchanged), leaving every d2 value — and thus the sampling
/// distribution — exactly as in the naive refresh.
///
/// `seed_hint_out`, when given, receives each point's nearest centroid among
/// the first k-1 picks (the last pick never runs a refresh). run_lloyd's
/// first pruned pass seeds its scans with it: a near-optimal anchor makes
/// the triangle skips fire immediately, where seeding everything at centroid
/// 0 forces the first pass to compute most of the k candidate distances.
/// It is only a hint — every assignment is still proven exactly — so it
/// changes no output.
Matrix init_kmeanspp(const Matrix& data, std::size_t k,
                     const std::vector<double>& weights, stats::Rng& rng,
                     bool prune,
                     std::vector<std::size_t>* seed_hint_out = nullptr) {
  const std::size_t n = data.rows();
  Matrix centroids(k, data.cols());
  std::vector<double> d2(n, std::numeric_limits<double>::max());
  std::vector<std::size_t> nearest(n, 0);  ///< argmin centroid behind d2
  Matrix cdist2(k, k);                     ///< centroid–centroid, grown per pick
  const auto w = [&](std::size_t i) { return weights.empty() ? 1.0 : weights[i]; };

  const std::size_t dim = data.cols();
  const double* points = data.data().data();
  const double* cents = centroids.data().data();

  std::size_t first = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  if (!weights.empty()) first = rng.weighted_index(weights);
  centroids.set_row(0, data.row(first));
  for (std::size_t c = 1; c < k; ++c) {
    const std::size_t fresh = c - 1;  // centroid added by the previous round
    const double* fresh_row = cents + fresh * dim;
    if (prune) {
      for (std::size_t p = 0; p < fresh; ++p) {
        const double d = dist2_raw(cents + p * dim, fresh_row, dim);
        cdist2(p, fresh) = d;
        cdist2(fresh, p) = d;
      }
    }
    double total = 0.0;
    if (prune) {
      // Refresh pass first, totals after: per-point updates are independent,
      // so splitting the loops changes no value and lets two surviving
      // points' distance chains run interleaved (dist2_raw2).
      std::size_t pending = n;  ///< first survivor of an unfinished pair
      for (std::size_t i = 0; i < n; ++i) {
        if (fresh > 0 && cdist2(nearest[i], fresh) >= d2[i] * kPruneMargin) {
          continue;  // nearest centroid proves the fresh one is farther
        }
        if (pending == n) {
          pending = i;
          continue;
        }
        double dp;
        double di;
        dist2_raw2(points + pending * dim, fresh_row, points + i * dim,
                   fresh_row, dim, dp, di);
        if (dp < d2[pending]) {
          d2[pending] = dp;
          nearest[pending] = fresh;
        }
        if (di < d2[i]) {
          d2[i] = di;
          nearest[i] = fresh;
        }
        pending = n;
      }
      if (pending != n) {
        const double d = dist2_raw(points + pending * dim, fresh_row, dim);
        if (d < d2[pending]) {
          d2[pending] = d;
          nearest[pending] = fresh;
        }
      }
      for (std::size_t i = 0; i < n; ++i) total += d2[i] * w(i);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = squared_distance(data.row(i), centroids.row(fresh));
        if (d < d2[i]) {
          d2[i] = d;
          nearest[i] = fresh;
        }
        total += d2[i] * w(i);
      }
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
      // All points identical to existing centroids; any choice works.
      chosen = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    }
    centroids.set_row(c, data.row(chosen));
  }
  if (seed_hint_out != nullptr) *seed_hint_out = nearest;
  return centroids;
}

/// Picks k distinct random data points as initial centroids.
Matrix init_random(const Matrix& data, std::size_t k, stats::Rng& rng) {
  const std::vector<std::size_t> picks = rng.sample_without_replacement(data.rows(), k);
  Matrix centroids(k, data.cols());
  for (std::size_t c = 0; c < k; ++c) centroids.set_row(c, data.row(picks[c]));
  return centroids;
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

struct LloydOutcome {
  Matrix centroids;
  std::vector<std::size_t> assignment;
  std::vector<double> dist2;  ///< squared distance to the assigned centroid
  double sse = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Conservative scaling for bounds kept in real-distance (sqrt) space: the
/// 1e-12 relative slack dwarfs the accumulated rounding error of a sqrt plus
/// one decay subtraction per Lloyd iteration (~1e-16 relative each), so
/// "loosened" lower bounds stay true lower bounds and "inflated" upper bounds
/// stay true upper bounds under FP.
double lower(double d) { return d * (1.0 - 1e-12); }
double upper(double d) { return d * (1.0 + 1e-12); }

/// Working set the per-centroid bounds may take: n·k doubles. Inputs that fit
/// carry one lower bound per (point, centroid) pair (Elkan); larger ones —
/// e.g. minibatch_kmeans' full-data refine — carry one lower bound per point
/// (Hamerly), so memory stays O(n). The layout is a function of n·k alone and
/// changes no output.
constexpr std::size_t kPerCentroidBoundBytes = std::size_t{1} << 20;

/// Everything a Lloyd run reuses across passes: the carried bounds, the
/// per-pass centroid geometry and the update step's accumulators. Allocated
/// once per run, not once per iteration.
struct LloydScratch {
  LloydScratch(std::size_t n, std::size_t k, std::size_t dim, bool prune)
      : per_centroid(n * k <= kPerCentroidBoundBytes / sizeof(double)),
        next(k, dim),
        counts(k),
        mass(k),
        move_hi(k),
        previous(n) {
    if (!prune) return;
    // -inf ("know nothing") makes the first pass compute like the naive scan.
    bounds.assign(per_centroid ? n * k : n,
                  -std::numeric_limits<double>::infinity());
    cdist2 = Matrix(k, k);
    cdist_lo = Matrix(k, k);
    min_cd2.resize(k);
    min_cd_lo.resize(k);
  }

  /// Real-distance lower bounds carried across passes, empty when not
  /// pruning. Per-centroid layout (Elkan): entry i·k + c bounds d(x_i, c) and
  /// decays by centroid c's own movement. O(n) layout (Hamerly): entry i
  /// bounds d(x_i, c) for every c but the assigned centroid and decays by the
  /// largest movement among those.
  bool per_centroid;
  std::vector<double> bounds;
  Matrix cdist2;                  ///< centroid–centroid squared distances
  Matrix cdist_lo;                ///< lower(sqrt(cdist2))
  std::vector<double> min_cd2;    ///< per centroid: nearest other centroid
  std::vector<double> min_cd_lo;  ///< lower(sqrt(min_cd2))
  Matrix next;                    ///< update step: next centroids
  std::vector<std::size_t> counts;
  std::vector<double> mass;
  std::vector<double> move_hi;    ///< upper(real move) per centroid
  std::vector<std::size_t> previous;  ///< assignment before the current pass
  /// Bound decay owed by the next pass: the last update moved centroids by
  /// move_hi. biggest/decay1/decay2: the largest mover, its move_hi and the
  /// runner-up's (the O(n) layout's decay).
  bool decay_pending = false;
  std::size_t biggest = 0;
  double decay1 = 0.0;
  double decay2 = 0.0;
};

/// Assigns every point to its nearest centroid, filling `assignment` and
/// `dist2`, and returns the (weighted) SSE. The naive scan walks candidates
/// in index order with a running strict-< best, so ties resolve to the
/// lowest centroid index.
///
/// The pruned pass produces the naive result bit for bit while skipping most
/// distance evaluations; every skip is *strictly* proven (margins leave no
/// room for an exact tie, so tie-breaking can never diverge):
///  - a first sweep computes every point's exact distance to its current
///    centroid (the previous assignment, or the seeding hint), four points'
///    FP chains interleaved (dist2_raw4). Lloyd moves centroids little per
///    iteration, so this seed is usually the winner or close to it;
///  - the carried bounds (see LloydScratch) first absorb the decay owed by
///    the last centroid move. Per-centroid layout: candidate c is skipped
///    when lo(x, c) > upper(d(x, seed)). O(n) layout: the whole scan is
///    skipped when lb(x) > upper(d(x, seed)), or when even the seed's
///    nearest other centroid is more than twice as far as the point (s(c));
///  - a remaining candidate c is skipped when the triangle inequality proves
///    d(x, c) > best via centroid–centroid distances (see kPruneMargin). The
///    triangle skips need best > 0 when the current best index sits above
///    c: at best == 0 a duplicate centroid could tie rather than lose.
/// Surviving candidates are computed four at a time (dist2_raw4) and folded
/// in as the lexicographic min of (distance, index) — the naive winner, no
/// matter which candidates were skipped. A candidate is tested against the
/// best known when it is queued, i.e. before its batch-mates are folded in;
/// a staler best only makes a skip test more conservative. Every computed
/// distance and every triangle skip refreshes the carried bounds.
/// dist2 is exact in every path (the winning distance is always computed,
/// never bounded). Points are independent, and the SSE is reduced serially
/// in point order, so the result is also identical for every thread count.
double assign_points(const Matrix& data, const Matrix& centroids,
                     const KMeansParams& params, util::ThreadPool* pool,
                     std::vector<std::size_t>& assignment,
                     std::vector<double>& dist2, LloydScratch& scratch) {
  const std::size_t n = data.rows();
  const std::size_t k = centroids.rows();
  const std::size_t dim = data.cols();
  const double* points = data.data().data();
  const double* cents = centroids.data().data();
  if (!scratch.bounds.empty()) {
    Matrix& cdist2 = scratch.cdist2;
    Matrix& cdist_lo = scratch.cdist_lo;
    std::vector<double>& min_cd2 = scratch.min_cd2;
    std::vector<double>& min_cd_lo = scratch.min_cd_lo;
    std::fill(min_cd2.begin(), min_cd2.end(), std::numeric_limits<double>::max());
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        const double d = dist2_raw(cents + a * dim, cents + b * dim, dim);
        cdist2(a, b) = d;
        cdist2(b, a) = d;
        const double lo = lower(std::sqrt(d));
        cdist_lo(a, b) = lo;
        cdist_lo(b, a) = lo;
        min_cd2[a] = std::min(min_cd2[a], d);
        min_cd2[b] = std::min(min_cd2[b], d);
      }
    }
    for (std::size_t c = 0; c < k; ++c) min_cd_lo[c] = lower(std::sqrt(min_cd2[c]));

    util::maybe_parallel_for(pool, (n + 3) / 4, [&](std::size_t g) {
      const std::size_t i0 = 4 * g;
      if (i0 + 4 > n) {
        for (std::size_t i = i0; i < n; ++i) {
          dist2[i] = dist2_raw(points + i * dim, cents + assignment[i] * dim, dim);
        }
        return;
      }
      const double* a[4] = {};
      const double* b[4] = {};
      for (std::size_t m = 0; m < 4; ++m) {
        a[m] = points + (i0 + m) * dim;
        b[m] = cents + assignment[i0 + m] * dim;
      }
      dist2_raw4(a, b, dim, dist2.data() + i0);
    });

    const bool per_centroid = scratch.per_centroid;
    const bool decay = scratch.decay_pending;
    const double* move_hi = scratch.move_hi.data();
    double* bounds = scratch.bounds.data();
    scratch.decay_pending = false;
    util::maybe_parallel_for(pool, n, [&](std::size_t i) {
      const double* point = points + i * dim;
      const std::size_t seed = assignment[i];
      double best = dist2[i];
      std::size_t best_c = seed;
      const double root = std::sqrt(best);
      double best_ub = upper(root);  ///< tracks upper(sqrt(best))
      double* lo = per_centroid ? bounds + i * k : nullptr;
      if (!per_centroid) {
        if (decay) bounds[i] -= seed == scratch.biggest ? scratch.decay2 : scratch.decay1;
        if (bounds[i] > best_ub) {
          // Every other centroid is strictly farther than the seed: keep it.
          // s(c) can only tighten the carried bound.
          bounds[i] = std::max(bounds[i], min_cd_lo[seed] - best_ub);
          return;
        }
        if (min_cd2[seed] >= best * kPruneMargin && best > 0.0) {
          // Even the NEAREST other centroid is strictly too far (s(c) test):
          // for any c != seed, d(x, c) >= d(seed, c) - d(x, seed).
          bounds[i] = min_cd_lo[seed] - best_ub;
          return;
        }
      }
      double second = std::numeric_limits<double>::max();      // exact, squared
      double skipped_lo = std::numeric_limits<double>::max();  // real-distance
      const auto apply = [&](double d, std::size_t c) {
        if (per_centroid) lo[c] = lower(std::sqrt(d));
        if (d < best || (d == best && c < best_c)) {
          second = std::min(second, best);
          best = d;
          best_c = c;
          best_ub = upper(std::sqrt(best));
        } else {
          second = std::min(second, d);
        }
      };
      std::size_t queued[4] = {};
      std::size_t count = 0;
      const auto compute_queued = [&] {
        const double* c0 = cents + queued[0] * dim;
        if (count >= 3) {
          if (count == 3) queued[3] = queued[2];  // computed, not folded in
          const double* a[4] = {point, point, point, point};
          const double* b[4] = {c0, cents + queued[1] * dim,
                                cents + queued[2] * dim, cents + queued[3] * dim};
          double d[4];
          dist2_raw4(a, b, dim, d);
          for (std::size_t m = 0; m < count; ++m) apply(d[m], queued[m]);
        } else if (count == 2) {
          double d0;
          double d1;
          dist2_raw2(point, c0, point, cents + queued[1] * dim, dim, d0, d1);
          apply(d0, queued[0]);
          apply(d1, queued[1]);
        } else if (count == 1) {
          apply(dist2_raw(point, c0, dim), queued[0]);
        }
        count = 0;
      };
      // Candidates in blocks of 64. A branch-free sweep lists the ones whose
      // carried bound does not already prove them farther than the seed
      // (as offsets from `base`), applying the owed decay on the way; only
      // listed ones are visited.
      for (std::size_t base = 0; base < k; base += 64) {
        const std::size_t width = std::min<std::size_t>(64, k - base);
        std::uint8_t listed[64] = {};
        std::size_t live = 0;
        for (std::size_t m = 0; m < width; ++m) {
          double v = per_centroid ? lo[base + m] : -std::numeric_limits<double>::infinity();
          if (per_centroid && decay) {
            v -= move_hi[base + m];
            lo[base + m] = v;
          }
          listed[live] = static_cast<std::uint8_t>(m);
          live += static_cast<std::size_t>((v <= best_ub) & (base + m != seed));
        }
        for (std::size_t j = 0; j < live; ++j) {
          const std::size_t c = base + listed[j];
          if (per_centroid && lo[c] > best_ub) continue;  // best improved since
          if (cdist2(best_c, c) >= best * kPruneMargin && (c > best_c || best > 0.0)) {
            // d(x, c) >= d(best_c, c) - d(x, best_c): a lower bound to carry.
            const double tri = cdist_lo(best_c, c) - best_ub;
            if (per_centroid) {
              lo[c] = std::max(lo[c], tri);
            } else {
              skipped_lo = std::min(skipped_lo, tri);
            }
            continue;
          }
          queued[count++] = c;
          if (count == 4) compute_queued();
        }
      }
      compute_queued();
      if (per_centroid) {
        lo[seed] = lower(root);  // the sweep above only decayed it
      } else {
        bounds[i] = std::min(lower(std::sqrt(second)), skipped_lo);
      }
      assignment[i] = best_c;
      dist2[i] = best;
    });
  } else {
    util::maybe_parallel_for(pool, n, [&](std::size_t i) {
      const auto point = data.row(i);
      double best = std::numeric_limits<double>::max();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = squared_distance(point, centroids.row(c));
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      assignment[i] = best_c;
      dist2[i] = best;
    });
  }
  double sse = 0.0;
  if (params.weights.empty()) {
    for (std::size_t i = 0; i < n; ++i) sse += dist2[i];
  } else {
    for (std::size_t i = 0; i < n; ++i) sse += dist2[i] * params.weights[i];
  }
  return sse;
}

LloydOutcome run_lloyd(const Matrix& data, Matrix centroids,
                       const KMeansParams& params, util::ThreadPool* pool,
                       std::vector<std::size_t> seed_hint = {}) {
  const std::size_t n = data.rows();
  const std::size_t k = params.k;
  const std::size_t dim = data.cols();
  const auto w = [&](std::size_t i) {
    return params.weights.empty() ? 1.0 : params.weights[i];
  };

  LloydOutcome out;
  // The hint only seeds the first pruned scan's anchors (see init_kmeanspp);
  // with no hint every point starts at centroid 0, as the naive scan does.
  if (seed_hint.size() == n) {
    out.assignment = std::move(seed_hint);
  } else {
    out.assignment.assign(n, 0);
  }
  out.dist2.assign(n, 0.0);
  LloydScratch scratch(n, k, dim, params.prune && k > 1);
  Matrix& next = scratch.next;
  std::vector<std::size_t>& counts = scratch.counts;
  std::vector<double>& mass = scratch.mass;
  std::vector<double>& move_hi = scratch.move_hi;
  bool repaired = false;  ///< did the last update re-seed a centroid?
  bool final_pass_done = false;  ///< `out` already holds the final centroids' pass

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    std::copy(out.assignment.begin(), out.assignment.end(), scratch.previous.begin());
    out.sse = assign_points(data, centroids, params, pool, out.assignment,
                            out.dist2, scratch);

    // Membership unchanged and the current centroids are plain means of that
    // membership (iter > 0, no repair): recomputing the update would rebuild
    // the exact same sums, so movement is exactly 0 — converged. The pass
    // just made is then also the final pass. (A repaired centroid is not a
    // mean, so its re-repair could pick a different point.)
    if (iter > 0 && !repaired && params.tolerance >= 0.0 &&
        out.assignment == scratch.previous) {
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
    double max_move2 = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double m2 = squared_distance(next.row(c), centroids.row(c));
      movement += m2;
      max_move2 = std::max(max_move2, m2);
      move_hi[c] = m2 > 0.0 ? upper(std::sqrt(m2)) : 0.0;
    }
    // Centroids moved: every lower bound decays by how far the centroids it
    // covers may have come closer. The next pass applies the decay to each
    // point as it visits it. In the O(n) layout one bound covers every
    // centroid but the assigned one, so it decays by the largest movement
    // among those — a point assigned to the biggest mover decays by the
    // runner-up (Hamerly's refinement). Inflating the adjustments (move_hi
    // is upper(real move)) keeps the bounds conservative under FP.
    if (max_move2 > 0.0 && !scratch.bounds.empty()) {
      scratch.decay_pending = true;
      scratch.biggest = 0;
      scratch.decay1 = 0.0;
      scratch.decay2 = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        if (move_hi[c] > scratch.decay1) {
          scratch.decay2 = scratch.decay1;
          scratch.decay1 = move_hi[c];
          scratch.biggest = c;
        } else {
          scratch.decay2 = std::max(scratch.decay2, move_hi[c]);
        }
      }
    }
    std::swap(centroids, next);
    out.iterations = iter + 1;
    if (movement <= params.tolerance) {
      out.converged = true;
      break;
    }
  }

  // Final assignment against the final centroids (keeps sse consistent).
  if (!final_pass_done) {
    out.sse = assign_points(data, centroids, params, pool, out.assignment,
                            out.dist2, scratch);
  }
  out.centroids = std::move(centroids);
  return out;
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
  ensure(params.k >= 1, "kmeans: k must be at least 1");
  ensure(data.rows() >= params.k, "kmeans: k exceeds the number of points");
  ensure(params.max_iterations > 0, "kmeans: max_iterations must be positive");
  ensure(params.restarts > 0, "kmeans: restarts must be positive");
  ensure(params.weights.empty() || params.weights.size() == data.rows(),
         "kmeans: weights must be empty or match the point count");
  // Non-finite input would turn centroids into NaN and void every pruning
  // bound; reject it up front, positioned.
  for (std::size_t i = 0; i < params.weights.size(); ++i) {
    if (!std::isfinite(params.weights[i])) {
      throw FaultError("kmeans: non-finite weight at row " + std::to_string(i));
    }
    ensure(params.weights[i] >= 0.0, "kmeans: weights must be non-negative");
  }
  reject_non_finite(data, "value");
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
    if (r == 0 && warm) {
      // Warm start: no seeding run, no seed hint (the first pruned pass
      // anchors every point at centroid 0, as a hintless cold start does).
      outcomes[r] = run_lloyd(data, params.initial_centroids, params, inner);
      return;
    }
    stats::Rng restart_rng = rng.fork(static_cast<std::uint64_t>(r));
    std::vector<std::size_t> seed_hint;
    Matrix init = params.init == KMeansInit::kKMeansPlusPlus
                      ? init_kmeanspp(data, params.k, params.weights, restart_rng,
                                      params.prune, &seed_hint)
                      : init_random(data, params.k, restart_rng);
    outcomes[r] =
        run_lloyd(data, std::move(init), params, inner, std::move(seed_hint));
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

}  // namespace flare::ml
