// Internal dense-distance kernels shared by the k-means++ seeding and the
// pairwise-distance/silhouette paths. Exact twins of
// linalg::squared_distance's loop: same operations in the same order, so
// every value they produce matches the library kernel bit for bit.
#pragma once

#include <cstddef>

namespace flare::ml::detail {

/// linalg::squared_distance's exact loop over raw row pointers. The hot
/// paths make millions of distance calls on ~18-wide rows, where the span
/// construction, bounds checks and call overhead cost as much as the
/// arithmetic; this inline twin removes that overhead.
inline double dist2_raw(const double* a, const double* b, std::size_t dim) {
  double sum = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double d = a[j] - b[j];
    sum += d * d;
  }
  return sum;
}

/// Two independent dist2_raw evaluations with interleaved accumulators.
/// Each sum performs exactly dist2_raw's operations in dist2_raw's order —
/// both results are bit-identical to two separate calls — but the two FP
/// dependency chains overlap in the pipeline, hiding most of the add
/// latency that makes a single ~18-wide chain latency-bound (the chain
/// cannot be reordered internally without changing the rounding, so pairing
/// independent distances is the only way to buy throughput exactly).
inline void dist2_raw2(const double* a0, const double* b0, const double* a1,
                       const double* b1, std::size_t dim, double& out0,
                       double& out1) {
  double s0 = 0.0;
  double s1 = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double d0 = a0[j] - b0[j];
    const double d1 = a1[j] - b1[j];
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  out0 = s0;
  out1 = s1;
}

}  // namespace flare::ml::detail
