#include "linalg/kernels.hpp"

#include <algorithm>
#include <vector>

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

}  // namespace

Matrix centered_cross_products(const Matrix& data,
                               std::span<const double> means,
                               util::ThreadPool* pool) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  ensure(means.size() == d, "centered_cross_products: means size mismatch");
  const std::size_t tiles = (d + kTile - 1) / kTile;
  constexpr std::size_t kTileSlots = kTile * kTile;
  // Tile-row ti owns the tiles (ti, ti..tiles-1), stored back to back.
  const auto tile_row_offset = [tiles](std::size_t ti) {
    return ti * (2 * tiles - ti + 1) / 2 * kTileSlots;
  };
  std::vector<double> acc(tile_row_offset(tiles), 0.0);

  // Group g of the panel holds columns [4g, 4g + 4) of every centred row of
  // the chunk, four contiguous doubles per row, zero past column d.
  std::vector<double> panel(tiles * kRowChunk * kTile);
  const double* values = data.data().data();
  for (std::size_t r0 = 0; r0 < n; r0 += kRowChunk) {
    const std::size_t rows = std::min(kRowChunk, n - r0);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* row = values + (r0 + r) * d;
      for (std::size_t c = 0; c < tiles * kTile; ++c) {
        panel[((c / kTile) * rows + r) * kTile + c % kTile] =
            c < d ? row[c] - means[c] : 0.0;
      }
    }
    util::maybe_parallel_for(pool, tiles, [&](std::size_t ti) {
      const double* a = panel.data() + ti * rows * kTile;
      double* row_acc = acc.data() + tile_row_offset(ti);
      for (std::size_t t = 0; t < tiles - ti; ++t) {
        tile_update(a, panel.data() + (ti + t) * rows * kTile, rows,
                    row_acc + t * kTileSlots);
      }
    });
  }

  Matrix out(d, d);
  for (std::size_t ti = 0; ti < tiles; ++ti) {
    const double* row_acc = acc.data() + tile_row_offset(ti);
    for (std::size_t t = 0; t < tiles - ti; ++t) {
      for (std::size_t x = 0; x < kTile; ++x) {
        const std::size_t i = ti * kTile + x;
        for (std::size_t y = 0; y < kTile; ++y) {
          const std::size_t j = (ti + t) * kTile + y;
          if (i >= d || j >= d || j < i) continue;
          out(i, j) = row_acc[t * kTileSlots + x * kTile + y];
          out(j, i) = out(i, j);
        }
      }
    }
  }
  return out;
}

Matrix centered_product(const Matrix& a, std::span<const double> centre,
                        const Matrix& b, std::size_t cols,
                        util::ThreadPool* pool) {
  const std::size_t inner = a.cols();
  ensure(inner == b.rows(), "centered_product: inner dimension mismatch");
  ensure(cols <= b.cols(), "centered_product: too many output columns");
  ensure(centre.empty() || centre.size() == inner,
         "centered_product: centre size mismatch");
  Matrix out(a.rows(), cols);
  const double* lhs = a.data().data();
  const double* rhs = b.data().data();
  const std::size_t rhs_stride = b.cols();
  util::maybe_parallel_for(pool, a.rows(), [&](std::size_t r) {
    double* o = out.row(r).data();
    const double* x = lhs + r * inner;
    for (std::size_t k = 0; k < inner; ++k) {
      const double xk = centre.empty() ? x[k] : x[k] - centre[k];
      const double* brow = rhs + k * rhs_stride;
      for (std::size_t j = 0; j < cols; ++j) o[j] += xk * brow[j];
    }
  });
  return out;
}

}  // namespace flare::linalg
