// The two dense kernels behind FLARE's PCA paths (DESIGN.md §7).
//
// Both are *exact*: every output slot performs the same floating-point
// operations, in the same order and from the same 0.0 start, as the naive
// loop it replaced (those loops survive only as test oracles in
// tests/linalg/kernels_test.cpp). The speed comes from memory layout and
// register tiling across independent slots, never from reassociating a sum,
// so results are bit for bit those of the naive loops, for any thread count.
//
// Each kernel has two variants, chosen once per process from the CPU: the
// baseline x86-64 (SSE2) code, and on a CPU whose OS saves the AVX-512F
// state, zmm code with 8-wide tiles. Both keep every slot's sequence of one
// multiply then one add; `-ffp-contract=off` on every src/ library stops
// the compiler from fusing that pair into an FMA, which would round once.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace flare::linalg {

/// A read-only rows × cols matrix in any layout: element (r, c) is
/// data[r · row_stride + c · col_stride]. A Matrix is the row-major
/// instance (row_stride = cols, col_stride = 1); a column store block is
/// column-major (row_stride = 1, col_stride = the column pitch).
struct StridedView {
  const double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t row_stride = 0;
  std::size_t col_stride = 0;
};

/// The row-major view of `m`.
[[nodiscard]] StridedView row_major(const Matrix& m);

/// Centred cross-products (a tiled SYRK):
///   S(i, j) = Σ_r (data(r, i) − means[i]) · (data(r, j) − means[j]),
/// each slot summed over rows in ascending order starting from 0.0. The
/// result is symmetric (the lower triangle mirrors the upper). Rows are
/// centred once, 256 at a time, into a zero-padded panel of 4-column groups
/// (8-column with AVX-512F), read through the view's two strides, so a
/// row-major and a column-major input give the same bits; the upper
/// triangle accumulates in 4 × 4 SSE2 register tiles (8 × 8 in 8 zmm
/// registers) while each chunk streams past. Tasks own whole tile-rows of
/// the output, so `pool` changes no bit.
/// Callers: covariance_matrix (means = column means), the out-of-core
/// comoment fold (a column-major block, block means), TrackedPca::fold's
/// Gram matrix and the drift residual's RᵀR (means = 0).
[[nodiscard]] Matrix centered_cross_products(const StridedView& data,
                                             std::span<const double> means,
                                             util::ThreadPool* pool = nullptr);
/// The row-major instance: centered_cross_products(row_major(data), ...).
[[nodiscard]] Matrix centered_cross_products(const Matrix& data,
                                             std::span<const double> means,
                                             util::ThreadPool* pool = nullptr);

/// Row × matrix (a row panel):
///   out(r, j) = Σ_k (a(r, k) − centre[k]) · b(k, j)   for j < cols,
/// computed as out(r, :) += x(r, k) · b(k, :) with k ascending, so each slot
/// sums over k in order from 0.0 while the inner loop over j is contiguous
/// and vectorises. With AVX-512F, blocks of 4 rows × 8 columns accumulate in
/// one zmm register per row over k ascending, and the last `cols % 8`
/// columns run the baseline loop. An empty `centre` means no centring.
/// Tasks own output rows, so `pool` changes no bit.
/// Callers: Matrix::multiply (no centre), Pca::transform (centre = PCA
/// mean, cols = kept components) and TrackedPca::fold (centre = batch
/// mean).
[[nodiscard]] Matrix centered_product(const Matrix& a,
                                      std::span<const double> centre,
                                      const Matrix& b, std::size_t cols,
                                      util::ThreadPool* pool = nullptr);

namespace detail {

/// The variants behind the two kernels, each callable directly so tests can
/// check both against the naive loops on one host. The `_avx512f` ones throw
/// std::invalid_argument unless avx512f_available().
[[nodiscard]] bool avx512f_available();
/// The CPU probe behind ml::nearest_centroids' AVX2 variant. Both probes
/// also require the OS to save the wide registers.
[[nodiscard]] bool avx2_available();
[[nodiscard]] Matrix centered_cross_products_baseline(
    const StridedView& data, std::span<const double> means,
    util::ThreadPool* pool = nullptr);
[[nodiscard]] Matrix centered_cross_products_avx512f(
    const StridedView& data, std::span<const double> means,
    util::ThreadPool* pool = nullptr);
[[nodiscard]] Matrix centered_product_baseline(
    const Matrix& a, std::span<const double> centre, const Matrix& b,
    std::size_t cols, util::ThreadPool* pool = nullptr);
[[nodiscard]] Matrix centered_product_avx512f(
    const Matrix& a, std::span<const double> centre, const Matrix& b,
    std::size_t cols, util::ThreadPool* pool = nullptr);

}  // namespace detail

}  // namespace flare::linalg
