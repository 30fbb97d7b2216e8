#include "linalg/kernels.hpp"

#include <algorithm>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::linalg {
namespace {

/// Output tile edge: a 4 × 4 tile is 16 accumulators, which with the two
/// 4-wide operand groups still fits the 16 SSE registers of baseline x86-64.
constexpr std::size_t kTile = 4;

/// Rows centred and packed per pass. A 256-row chunk of a 122-wide block is
/// ~250 KiB, so the chunk stays in L2 while every tile streams over it, each
/// 4-column strip (8 KiB) stays in L1, and the transient panel never grows
/// with n. Chunking only splits each slot's row loop into consecutive runs;
/// the order of its adds is unchanged.
constexpr std::size_t kRowChunk = 256;

/// acc[x][y] += a[r][x] · b[r][y] for rows r in [0, rows), rows ascending.
/// Each of the 16 slots is its own serial chain: one multiply, one add per
/// row, exactly the naive loop's operations for that slot.
void tile_update(const double* a, const double* b, std::size_t rows,
                 double* acc) {
  double c[kTile][kTile];
  for (std::size_t x = 0; x < kTile; ++x) {
    for (std::size_t y = 0; y < kTile; ++y) c[x][y] = acc[x * kTile + y];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double* ar = a + r * kTile;
    const double* br = b + r * kTile;
    for (std::size_t x = 0; x < kTile; ++x) {
      for (std::size_t y = 0; y < kTile; ++y) c[x][y] += ar[x] * br[y];
    }
  }
  for (std::size_t x = 0; x < kTile; ++x) {
    for (std::size_t y = 0; y < kTile; ++y) acc[x * kTile + y] = c[x][y];
  }
}

/// The SYRK driver for Tile × Tile register tiles that `Update` accumulates
/// (row-major, Tile-wide operand groups, the contract of tile_update).
template <std::size_t Tile,
          void (*Update)(const double*, const double*, std::size_t, double*)>
Matrix tiled_cross_products(const StridedView& data,
                            std::span<const double> means,
                            util::ThreadPool* pool) {
  const std::size_t n = data.rows;
  const std::size_t d = data.cols;
  ensure(means.size() == d, "centered_cross_products: means size mismatch");
  const std::size_t tiles = (d + Tile - 1) / Tile;
  constexpr std::size_t kTileSlots = Tile * Tile;
  // Tile-row ti owns the tiles (ti, ti..tiles-1), stored back to back.
  const auto tile_row_offset = [tiles](std::size_t ti) {
    return ti * (2 * tiles - ti + 1) / 2 * kTileSlots;
  };
  std::vector<double> acc(tile_row_offset(tiles), 0.0);

  // Group g of the panel holds columns [Tile·g, Tile·g + Tile) of every
  // centred row of the chunk, Tile contiguous doubles per row, zero past
  // column d. Packing walks a group row by row, so a row-major input reads
  // Tile contiguous values per row and a column-major one Tile sequential
  // column streams.
  std::vector<double> panel(tiles * kRowChunk * Tile);
  for (std::size_t r0 = 0; r0 < n; r0 += kRowChunk) {
    const std::size_t rows = std::min(kRowChunk, n - r0);
    for (std::size_t g = 0; g < tiles; ++g) {
      const std::size_t c0 = g * Tile;
      const std::size_t width = std::min(Tile, d - c0);
      double* dst = panel.data() + g * rows * Tile;
      for (std::size_t r = 0; r < rows; ++r) {
        const double* row =
            data.data + (r0 + r) * data.row_stride + c0 * data.col_stride;
        for (std::size_t x = 0; x < width; ++x) {
          dst[r * Tile + x] = row[x * data.col_stride] - means[c0 + x];
        }
        for (std::size_t x = width; x < Tile; ++x) dst[r * Tile + x] = 0.0;
      }
    }
    util::maybe_parallel_for(pool, tiles, [&](std::size_t ti) {
      const double* a = panel.data() + ti * rows * Tile;
      double* row_acc = acc.data() + tile_row_offset(ti);
      for (std::size_t t = 0; t < tiles - ti; ++t) {
        Update(a, panel.data() + (ti + t) * rows * Tile, rows,
               row_acc + t * kTileSlots);
      }
    });
  }

  Matrix out(d, d);
  for (std::size_t ti = 0; ti < tiles; ++ti) {
    const double* row_acc = acc.data() + tile_row_offset(ti);
    for (std::size_t t = 0; t < tiles - ti; ++t) {
      for (std::size_t x = 0; x < Tile; ++x) {
        const std::size_t i = ti * Tile + x;
        for (std::size_t y = 0; y < Tile; ++y) {
          const std::size_t j = (ti + t) * Tile + y;
          if (i >= d || j >= d || j < i) continue;
          out(i, j) = row_acc[t * kTileSlots + x * Tile + y];
          out(j, i) = out(i, j);
        }
      }
    }
  }
  return out;
}

/// The zeroed a.rows() × cols output of centered_product, after checking
/// the shapes.
Matrix product_output(const Matrix& a, std::span<const double> centre,
                      const Matrix& b, std::size_t cols) {
  ensure(a.cols() == b.rows(), "centered_product: inner dimension mismatch");
  ensure(cols <= b.cols(), "centered_product: too many output columns");
  ensure(centre.empty() || centre.size() == a.cols(),
         "centered_product: centre size mismatch");
  return Matrix(a.rows(), cols);
}

/// o[j] += (x[k] − centre[k]) · b(k, j) for j in [j0, cols), k ascending:
/// the whole row in the baseline, the columns past the last 8-wide group in
/// the AVX-512F variant.
void product_row(const double* x, std::span<const double> centre,
                 const Matrix& b, std::size_t j0, std::size_t cols,
                 double* o) {
  const double* rhs = b.data().data();
  const std::size_t rhs_stride = b.cols();
  for (std::size_t k = 0; k < b.rows(); ++k) {
    const double xk = centre.empty() ? x[k] : x[k] - centre[k];
    const double* brow = rhs + k * rhs_stride;
    for (std::size_t j = j0; j < cols; ++j) o[j] += xk * brow[j];
  }
}

#if defined(__x86_64__)

/// AVX-512F tile edge: an 8 × 8 tile is 8 zmm accumulators of 8 slots.
constexpr std::size_t kWideTile = 8;

/// tile_update on an 8 × 8 tile: zmm c[x] holds the slots (x, 0..7), and
/// each row does one multiply and one add per slot, as in tile_update. The
/// build's -ffp-contract=off keeps the pair from fusing into an FMA.
__attribute__((target("avx512f"))) void tile_update_avx512f(
    const double* a, const double* b, std::size_t rows, double* acc) {
  __m512d c[kWideTile];
#pragma GCC unroll 8
  for (std::size_t x = 0; x < kWideTile; ++x) {
    c[x] = _mm512_loadu_pd(acc + x * kWideTile);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double* ar = a + r * kWideTile;
    const __m512d br = _mm512_loadu_pd(b + r * kWideTile);
#pragma GCC unroll 8
    for (std::size_t x = 0; x < kWideTile; ++x) {
      c[x] = _mm512_add_pd(c[x], _mm512_mul_pd(_mm512_set1_pd(ar[x]), br));
    }
  }
#pragma GCC unroll 8
  for (std::size_t x = 0; x < kWideTile; ++x) {
    _mm512_storeu_pd(acc + x * kWideTile, c[x]);
  }
}

/// Rows [0, Rows) of out from rows [0, Rows) of x, columns [0, wide): one
/// zmm accumulator per row and 8-column group, starting at 0.0 and adding
/// one product per k, k ascending — each slot's sequence in product_row.
template <std::size_t Rows>
__attribute__((target("avx512f"))) void product_block_avx512f(
    const double* x, std::size_t x_stride, std::span<const double> centre,
    const Matrix& b, std::size_t wide, double* out, std::size_t out_stride) {
  const double* rhs = b.data().data();
  const std::size_t rhs_stride = b.cols();
  for (std::size_t j0 = 0; j0 < wide; j0 += kWideTile) {
    __m512d acc[Rows];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Rows; ++i) acc[i] = _mm512_setzero_pd();
    for (std::size_t k = 0; k < b.rows(); ++k) {
      const __m512d bk = _mm512_loadu_pd(rhs + k * rhs_stride + j0);
#pragma GCC unroll 4
      for (std::size_t i = 0; i < Rows; ++i) {
        const double xik = x[i * x_stride + k];
        const double xk = centre.empty() ? xik : xik - centre[k];
        acc[i] = _mm512_add_pd(acc[i], _mm512_mul_pd(_mm512_set1_pd(xk), bk));
      }
    }
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Rows; ++i) {
      _mm512_storeu_pd(out + i * out_stride + j0, acc[i]);
    }
  }
}

/// Output rows per centered_product task in the AVX-512F variant.
constexpr std::size_t kProductRows = 4;

#endif  // __x86_64__

}  // namespace

namespace detail {

bool avx512f_available() {
#if defined(__x86_64__)
  // libgcc's probe also requires the OS to save the zmm state (XCR0).
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

bool avx2_available() {
#if defined(__x86_64__)
  // libgcc's probe also requires the OS to save the ymm state (XCR0).
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

Matrix centered_cross_products_baseline(const StridedView& data,
                                        std::span<const double> means,
                                        util::ThreadPool* pool) {
  return tiled_cross_products<kTile, tile_update>(data, means, pool);
}

Matrix centered_cross_products_avx512f(const StridedView& data,
                                       std::span<const double> means,
                                       util::ThreadPool* pool) {
  ensure(avx512f_available(), "centered_cross_products: no AVX-512F");
#if defined(__x86_64__)
  return tiled_cross_products<kWideTile, tile_update_avx512f>(data, means,
                                                              pool);
#else
  return {};
#endif
}

Matrix centered_product_baseline(const Matrix& a,
                                 std::span<const double> centre,
                                 const Matrix& b, std::size_t cols,
                                 util::ThreadPool* pool) {
  Matrix out = product_output(a, centre, b, cols);
  const double* lhs = a.data().data();
  util::maybe_parallel_for(pool, a.rows(), [&](std::size_t r) {
    product_row(lhs + r * a.cols(), centre, b, 0, cols, out.row(r).data());
  });
  return out;
}

Matrix centered_product_avx512f(const Matrix& a,
                                std::span<const double> centre,
                                const Matrix& b, std::size_t cols,
                                util::ThreadPool* pool) {
  ensure(avx512f_available(), "centered_product: no AVX-512F");
  Matrix out = product_output(a, centre, b, cols);
#if defined(__x86_64__)
  const std::size_t inner = a.cols();
  const std::size_t wide = cols - cols % kWideTile;
  const double* lhs = a.data().data();
  const std::size_t blocks = (a.rows() + kProductRows - 1) / kProductRows;
  util::maybe_parallel_for(pool, blocks, [&](std::size_t block) {
    const std::size_t r0 = block * kProductRows;
    const std::size_t rows = std::min(kProductRows, a.rows() - r0);
    double* dst = out.row(r0).data();
    if (rows == kProductRows) {
      product_block_avx512f<kProductRows>(lhs + r0 * inner, inner, centre, b,
                                          wide, dst, cols);
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        product_block_avx512f<1>(lhs + (r0 + r) * inner, inner, centre, b,
                                 wide, dst + r * cols, cols);
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      product_row(lhs + (r0 + r) * inner, centre, b, wide, cols,
                  dst + r * cols);
    }
  });
#endif
  return out;
}

}  // namespace detail

StridedView row_major(const Matrix& m) {
  return {m.data().data(), m.rows(), m.cols(), m.cols(), 1};
}

Matrix centered_cross_products(const StridedView& data,
                               std::span<const double> means,
                               util::ThreadPool* pool) {
  return detail::avx512f_available()
             ? detail::centered_cross_products_avx512f(data, means, pool)
             : detail::centered_cross_products_baseline(data, means, pool);
}

Matrix centered_cross_products(const Matrix& data,
                               std::span<const double> means,
                               util::ThreadPool* pool) {
  return centered_cross_products(row_major(data), means, pool);
}

Matrix centered_product(const Matrix& a, std::span<const double> centre,
                        const Matrix& b, std::size_t cols,
                        util::ThreadPool* pool) {
  return detail::avx512f_available()
             ? detail::centered_product_avx512f(a, centre, b, cols, pool)
             : detail::centered_product_baseline(a, centre, b, cols, pool);
}

}  // namespace flare::linalg
