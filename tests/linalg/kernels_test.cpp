// Bit-identity oracles for the dense kernels (linalg/kernels.hpp).
//
// Each kernel is checked against the naive loop it replaced — kept here,
// and only here, as the oracle — bit for bit, over random shapes (rows 1 to
// 3000, columns 1 to 130, so most widths are not a multiple of the 4- or
// 8-wide tile), over values that are ±0.0, negative, tiny (1e-300: products
// underflow), huge (1e300: products overflow) or of mixed magnitude, and on a
// 4-thread pool against inline execution. The public kernels run whichever
// variant the CPU selects; the KernelVariants suite drives the baseline and
// the AVX-512F variant directly over every tile and chunk edge, with the
// cross-products input both row-major and column-major (a column store
// block's layout), and skips the AVX-512F one on a CPU without it.
//
// Labelled `property` (ctest -L property); the nightly job re-runs it at 10×
// trials under a fresh FLARE_PROPERTY_BASE_SEED.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "linalg/covariance.hpp"
#include "linalg/matrix.hpp"
#include "stats/rng.hpp"
#include "tests/util/property.hpp"
#include "util/thread_pool.hpp"

namespace flare::linalg {
namespace {

// ---- Oracles: the loops the kernels replaced ----

// fold_block's comoment loop (covariance_matrix's loop visits the same
// slots with the same per-slot sequence): one serial sum per (i, j) slot.
Matrix naive_cross_products(const Matrix& x, std::span<const double> means) {
  const std::size_t d = x.cols();
  Matrix out(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      double cij = 0.0;
      for (std::size_t r = 0; r < x.rows(); ++r) {
        cij += (x(r, i) - means[i]) * (x(r, j) - means[j]);
      }
      out(i, j) = cij;
      out(j, i) = cij;
    }
  }
  return out;
}

// Pca::update's former Gram matrix: upper triangle row by row, skipping a
// zero left factor.
Matrix naive_gram(const Matrix& y) {
  const std::size_t d = y.cols();
  Matrix m(d, d);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const auto row = y.row(r);
    for (std::size_t i = 0; i < d; ++i) {
      const double yi = row[i];
      if (yi == 0.0) continue;
      for (std::size_t j = i; j < d; ++j) m(i, j) += yi * row[j];
    }
  }
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i + 1; j < d; ++j) m(j, i) = m(i, j);
  }
  return m;
}

// Matrix::multiply's former loop: inner products against a transposed copy.
Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  const Matrix bt = b.transposed();
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < bt.rows(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * bt(j, k);
      out(i, j) = sum;
    }
  }
  return out;
}

// Pca::transform's former loop: centred row · leading k columns.
Matrix naive_projection(const Matrix& data, std::span<const double> mean,
                        const Matrix& components, std::size_t k) {
  Matrix scores(data.rows(), k);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t j = 0; j < k; ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < data.cols(); ++i) {
        s += (data(r, i) - mean[i]) * components(i, j);
      }
      scores(r, j) = s;
    }
  }
  return scores;
}

// ---- Inputs ----

enum class Regime { kOrdinary, kTiny, kHuge, kMixed };

Regime draw_regime(stats::Rng& rng) {
  return static_cast<Regime>(rng.uniform_int(0, 3));
}

// ~10 % exact zeros of either sign; otherwise a signed value whose magnitude
// the regime sets.
double draw_value(stats::Rng& rng, Regime regime) {
  if (rng.uniform() < 0.1) return rng.uniform() < 0.5 ? 0.0 : -0.0;
  switch (regime) {
    case Regime::kOrdinary:
      return rng.normal(0.0, 50.0) + 3.0;
    case Regime::kTiny:
      return rng.normal(0.0, 1.0) * 1e-300;
    case Regime::kHuge:
      return rng.normal(0.0, 1.0) * 1e300;
    case Regime::kMixed:
      break;
  }
  const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
  return sign * rng.uniform(1.0, 10.0) * std::pow(10.0, rng.uniform(-300, 300));
}

Matrix draw_matrix(stats::Rng& rng, std::size_t rows, std::size_t cols,
                   Regime regime) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = draw_value(rng, regime);
  }
  return m;
}

std::vector<double> draw_vector(stats::Rng& rng, std::size_t size,
                                Regime regime) {
  std::vector<double> v(size);
  for (double& x : v) x = draw_value(rng, regime);
  return v;
}

std::size_t draw_size(stats::Rng& rng, std::size_t max, double scale) {
  const auto top = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(max) * scale));
  return static_cast<std::size_t>(rng.uniform_int(1, top));
}

// Bit for bit; two NaNs count as equal because a NaN's payload depends on
// which operand of an add the compiler puts first, not on the arithmetic.
void expect_bit_identical(const Matrix& got, const Matrix& want,
                          const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    if (std::bit_cast<std::uint64_t>(g) != std::bit_cast<std::uint64_t>(w)) {
      ADD_FAILURE() << what << " differs at (" << i / got.cols() << ", "
                    << i % got.cols() << ") of " << got.rows() << "x"
                    << got.cols() << ": " << g << " vs oracle " << w;
      return;
    }
  }
}

// ---- Cross-products ----

void check_cross_products(const Matrix& x, std::span<const double> means,
                          util::ThreadPool& pool) {
  const Matrix want = naive_cross_products(x, means);
  expect_bit_identical(centered_cross_products(x, means), want,
                       "cross-products");
  expect_bit_identical(centered_cross_products(x, means, &pool), want,
                       "cross-products on 4 threads");
}

TEST(CrossProductsKernel, MatchesNaiveLoopAtTileBoundaries) {
  util::ThreadPool pool(4);
  stats::Rng rng(0xC0FFEEull);
  for (const std::size_t d : {1u, 3u, 4u, 5u, 8u, 9u, 130u}) {
    for (const std::size_t rows : {1u, 2u, 255u, 256u, 257u, 513u}) {
      const Matrix x = draw_matrix(rng, rows, d, Regime::kOrdinary);
      check_cross_products(x, column_means(x), pool);
    }
  }
  const Matrix big = draw_matrix(rng, 3000, 130, Regime::kOrdinary);
  check_cross_products(big, column_means(big), pool);
}

TEST(CrossProductsKernel, MatchesNaiveLoopOnRandomShapesAndValues) {
  util::ThreadPool pool(4);
  FLARE_CHECK_PROPERTY(16, 0x5E1F7A11ull, [&](stats::Rng& rng, double scale) {
    const std::size_t rows = draw_size(rng, 3000, scale);
    const std::size_t d = draw_size(rng, 130, scale);
    const Regime regime = draw_regime(rng);
    const Matrix x = draw_matrix(rng, rows, d, regime);
    const std::vector<double> means = rng.uniform() < 0.5
                                          ? column_means(x)
                                          : draw_vector(rng, d, regime);
    check_cross_products(x, means, pool);
  });
}

// covariance_matrix is the kernel's output divided by n − 1, slot by slot.
TEST(CrossProductsKernel, CovarianceMatrixIsTheNaiveLoopOverNMinusOne) {
  util::ThreadPool pool(4);
  FLARE_CHECK_PROPERTY(8, 0xC0FA11ull, [&](stats::Rng& rng, double scale) {
    const std::size_t rows = 1 + draw_size(rng, 3000, scale);
    const std::size_t d = draw_size(rng, 130, scale);
    const Matrix x = draw_matrix(rng, rows, d, draw_regime(rng));
    Matrix want = naive_cross_products(x, column_means(x));
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        want(i, j) /= static_cast<double>(rows - 1);
      }
    }
    expect_bit_identical(covariance_matrix(x), want, "covariance");
    expect_bit_identical(covariance_matrix(x, &pool), want,
                         "covariance on 4 threads");
  });
}

// Zero means turn the kernel into Pca::update's Gram matrix YᵀY. The old
// loop skipped a zero left factor; for finite y that skip only drops an add
// of ±0.0 to a sum that started at +0.0 and so can never be -0.0, which
// leaves the sum unchanged. Exact zeros of both signs are drawn on purpose.
TEST(CrossProductsKernel, ZeroMeansReproduceTheZeroSkippingGramLoop) {
  util::ThreadPool pool(4);
  FLARE_CHECK_PROPERTY(16, 0x6A3A11ull, [&](stats::Rng& rng, double scale) {
    const std::size_t rows = draw_size(rng, 3000, scale);
    const std::size_t d = draw_size(rng, 130, scale);
    const Matrix y = draw_matrix(rng, rows, d, draw_regime(rng));
    const std::vector<double> zeros(d, 0.0);
    expect_bit_identical(centered_cross_products(y, zeros), naive_gram(y),
                         "gram");
    expect_bit_identical(centered_cross_products(y, zeros, &pool),
                         naive_gram(y), "gram on 4 threads");
  });
}

// ---- Row × matrix ----

TEST(CenteredProductKernel, MatchesNaiveMultiplyAndProjection) {
  util::ThreadPool pool(4);
  FLARE_CHECK_PROPERTY(16, 0x9A1E11ull, [&](stats::Rng& rng, double scale) {
    const std::size_t rows = draw_size(rng, 3000, scale);
    const std::size_t inner = draw_size(rng, 130, scale);
    const std::size_t cols = draw_size(rng, 130, scale);
    const Regime regime = draw_regime(rng);
    const Matrix a = draw_matrix(rng, rows, inner, regime);
    const Matrix b = draw_matrix(rng, inner, cols, regime);

    const Matrix product = naive_multiply(a, b);
    expect_bit_identical(centered_product(a, {}, b, cols), product,
                         "product");
    expect_bit_identical(a.multiply(b), product, "Matrix::multiply");
    expect_bit_identical(a.multiply(b, &pool), product,
                         "Matrix::multiply on 4 threads");

    const std::vector<double> centre = draw_vector(rng, inner, regime);
    const std::size_t k = draw_size(rng, cols, 1.0);
    const Matrix projection = naive_projection(a, centre, b, k);
    expect_bit_identical(centered_product(a, centre, b, k), projection,
                         "projection");
    expect_bit_identical(centered_product(a, centre, b, k, &pool), projection,
                         "projection on 4 threads");
  });
}

// ---- Both variants, over the tile and chunk edges ----

struct Variant {
  const char* name;
  bool available;
  Matrix (*cross_products)(const StridedView&, std::span<const double>,
                           util::ThreadPool*);
  Matrix (*product)(const Matrix&, std::span<const double>, const Matrix&,
                    std::size_t, util::ThreadPool*);
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

const Variant kVariants[] = {
    {"baseline", true, detail::centered_cross_products_baseline,
     detail::centered_product_baseline},
    {"avx512f", detail::avx512f_available(),
     detail::centered_cross_products_avx512f, detail::centered_product_avx512f},
};

class KernelVariant : public ::testing::TestWithParam<Variant> {
 protected:
  void SetUp() override {
    if (!GetParam().available) {
      GTEST_SKIP() << "this CPU lacks AVX-512F, or its OS does not save the "
                      "zmm state, so the variant never runs here";
    }
  }
};

// Widths either side of the 4- and 8-column tile edges and of a padded
// 122-column panel; row counts either side of the 256-row chunk and of a
// 2048-row block.
std::vector<std::size_t> edge_widths() {
  std::vector<std::size_t> widths;
  for (std::size_t w = 1; w <= 17; ++w) widths.push_back(w);
  for (const std::size_t w : {63u, 64u, 65u, 121u, 122u, 123u}) {
    widths.push_back(w);
  }
  return widths;
}

std::vector<std::size_t> edge_rows() {
  std::vector<std::size_t> rows;
  for (std::size_t r = 1; r <= 9; ++r) rows.push_back(r);
  for (const std::size_t r : {255u, 256u, 257u, 2047u, 2048u, 2049u}) {
    rows.push_back(r);
  }
  return rows;
}

TEST_P(KernelVariant, CrossProductsMatchNaiveLoopAtEveryEdge) {
  const Variant& v = GetParam();
  util::ThreadPool pool(4);
  stats::Rng rng(0xED6E5ull);
  for (const std::size_t d : edge_widths()) {
    for (const std::size_t rows : edge_rows()) {
      const Matrix x = draw_matrix(rng, rows, d, draw_regime(rng));
      const std::vector<double> means = column_means(x);
      const Matrix want = naive_cross_products(x, means);
      expect_bit_identical(v.cross_products(row_major(x), means, nullptr),
                           want, "cross-products");
      expect_bit_identical(v.cross_products(row_major(x), means, &pool), want,
                           "cross-products on 4 threads");
      if (HasFailure()) return;
    }
  }
}

// A column store block's layout: x column-major, each column `pitch`
// doubles after the previous one (pitch ≥ rows; the gap is NaN so a read
// past a column's rows would show).
std::vector<double> column_major(const Matrix& x, std::size_t pitch) {
  std::vector<double> out(x.cols() * pitch, std::nan(""));
  for (std::size_t c = 0; c < x.cols(); ++c) {
    for (std::size_t r = 0; r < x.rows(); ++r) out[c * pitch + r] = x(r, c);
  }
  return out;
}

// Packing reads through the view's strides, so a column-major input packs
// the same x − mean as the row-major one and gives the naive loop's bits.
TEST_P(KernelVariant, ColumnMajorCrossProductsMatchNaiveLoopAtEveryEdge) {
  const Variant& v = GetParam();
  util::ThreadPool pool(4);
  stats::Rng rng(0xC01A7ull);
  for (const std::size_t d : edge_widths()) {
    for (const std::size_t rows : edge_rows()) {
      const Matrix x = draw_matrix(rng, rows, d, draw_regime(rng));
      const std::vector<double> means = column_means(x);
      const Matrix want = naive_cross_products(x, means);
      const std::size_t pitch = (rows + 7) / 8 * 8 + rows % 3;
      const std::vector<double> buffer = column_major(x, pitch);
      const StridedView view{buffer.data(), rows, d, 1, pitch};
      expect_bit_identical(v.cross_products(view, means, nullptr), want,
                           "column-major cross-products");
      expect_bit_identical(v.cross_products(view, means, &pool), want,
                           "column-major cross-products on 4 threads");
      if (HasFailure()) return;
    }
  }
}

TEST_P(KernelVariant, ProductMatchesNaiveLoopsAtEveryEdge) {
  const Variant& v = GetParam();
  util::ThreadPool pool(4);
  stats::Rng rng(0x9A1E5ull);
  const std::vector<std::size_t> widths = edge_widths();
  for (std::size_t w = 0; w < widths.size(); ++w) {
    for (const std::size_t rows : edge_rows()) {
      const std::size_t cols = widths[w];
      const std::size_t inner = widths[(w + rows) % widths.size()];
      const Regime regime = draw_regime(rng);
      const Matrix a = draw_matrix(rng, rows, inner, regime);
      const Matrix b = draw_matrix(rng, inner, cols, regime);
      expect_bit_identical(v.product(a, {}, b, cols, nullptr),
                           naive_multiply(a, b), "product");

      const std::vector<double> centre = draw_vector(rng, inner, regime);
      const std::size_t k = draw_size(rng, cols, 1.0);
      const Matrix projection = naive_projection(a, centre, b, k);
      expect_bit_identical(v.product(a, centre, b, k, nullptr), projection,
                           "projection");
      expect_bit_identical(v.product(a, centre, b, k, &pool), projection,
                           "projection on 4 threads");
      if (HasFailure()) return;
    }
  }
}

// u · v rounds to exactly 1 (the exact product is 1 − 2⁻⁶⁰), so with a
// separate multiply and add −1 + u · v is exactly 0, while a fused
// multiply-add keeps the product unrounded and gives −2⁻⁶⁰. Every checked
// slot ends with that step, so an FMA anywhere in a variant fails here.
constexpr double kU = 1.0 + 0x1p-30;
constexpr double kV = 1.0 - 0x1p-30;

TEST_P(KernelVariant, SeparateMultiplyAndAddNeverFuse) {
  const Variant& v = GetParam();
  // Rows (−1, …, −1, 1, …, 1) then (u, …, u, v, …, v): every slot (i, j)
  // with i < 9 ≤ j sums −1 · 1 and then u · v.
  const std::size_t d = 18;
  Matrix x(2, d);
  for (std::size_t c = 0; c < d; ++c) {
    x(0, c) = c < d / 2 ? -1.0 : 1.0;
    x(1, c) = c < d / 2 ? kU : kV;
  }
  const std::vector<double> zeros(d, 0.0);
  const Matrix s = v.cross_products(row_major(x), zeros, nullptr);
  expect_bit_identical(s, naive_cross_products(x, zeros), "cross-products");
  for (std::size_t i = 0; i < d / 2; ++i) {
    for (std::size_t j = d / 2; j < d; ++j) EXPECT_EQ(s(i, j), 0.0);
  }

  // out(r, j) = −1 · 1 + u · v for every row and all 17 columns, so both
  // the 8-wide groups and the tail column are covered.
  Matrix a(5, 2);
  Matrix b(2, 17);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    a(r, 0) = -1.0;
    a(r, 1) = kU;
  }
  for (std::size_t j = 0; j < b.cols(); ++j) {
    b(0, j) = 1.0;
    b(1, j) = kV;
  }
  const Matrix p = v.product(a, {}, b, b.cols(), nullptr);
  expect_bit_identical(p, naive_multiply(a, b), "product");
  for (const double value : p.data()) EXPECT_EQ(value, 0.0);
}

INSTANTIATE_TEST_SUITE_P(KernelVariants, KernelVariant,
                         ::testing::ValuesIn(kVariants),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                           return std::string(info.param.name);
                         });

TEST(CenteredProductKernel, RejectsMismatchedShapes) {
  const Matrix a(3, 4);
  EXPECT_THROW((void)centered_product(a, {}, Matrix(5, 2), 2),
               std::invalid_argument);
  EXPECT_THROW((void)centered_product(a, {}, Matrix(4, 2), 3),
               std::invalid_argument);
  const std::vector<double> short_centre(3, 0.0);
  EXPECT_THROW((void)centered_product(a, short_centre, Matrix(4, 2), 2),
               std::invalid_argument);
  EXPECT_THROW((void)centered_cross_products(a, short_centre),
               std::invalid_argument);
}

}  // namespace
}  // namespace flare::linalg
