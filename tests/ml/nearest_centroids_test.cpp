// ml::nearest_centroids against the naive nearest-centroid loop
// (tests/util/naive_kmeans.hpp), bit for bit. The NearestCentroidVariants
// suite drives every variant directly over the tile edges — k either side
// of one, two and many 4-lane groups, every n mod 4, one and many
// coordinates —
// with duplicate centroids, d = 0 ties and non-finite distances, and skips
// a variant the CPU (or its OS) does not support.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "ml/kmeans.hpp"
#include "stats/rng.hpp"
#include "tests/util/naive_kmeans.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {
namespace {

using linalg::Matrix;

struct ScanVariant {
  const char* name;
  bool available;
  void (*scan)(const Matrix&, const Matrix&, std::span<std::size_t>,
               std::span<double>, util::ThreadPool*);
};

void PrintTo(const ScanVariant& v, std::ostream* os) { *os << v.name; }

const ScanVariant kScanVariants[] = {
    {"baseline", true, detail::nearest_centroids_baseline},
    {"avx2", linalg::detail::avx2_available(), detail::nearest_centroids_avx2},
};

class NearestCentroidVariant : public ::testing::TestWithParam<ScanVariant> {
 protected:
  void SetUp() override {
    if (!GetParam().available) {
      GTEST_SKIP() << "this CPU (or its OS) lacks " << GetParam().name
                   << ", so the variant never runs here";
    }
  }
};

/// Runs `v` serially and on 4 threads; both must be the naive loop's
/// assignment and distance bits.
void expect_naive(const ScanVariant& v, const Matrix& points,
                  const Matrix& centroids, util::ThreadPool& pool) {
  std::vector<std::size_t> want_c;
  std::vector<double> want_d;
  testing::naive_nearest(points, centroids, want_c, want_d);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    std::vector<std::size_t> got_c(points.rows(), 12345);
    std::vector<double> got_d(points.rows(), -1.0);
    v.scan(points, centroids, got_c, got_d, p);
    for (std::size_t i = 0; i < points.rows(); ++i) {
      ASSERT_EQ(got_c[i], want_c[i]) << "point " << i << (p ? " on 4 threads" : "");
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got_d[i]),
                std::bit_cast<std::uint64_t>(want_d[i]))
          << "point " << i << ": " << got_d[i] << " vs " << want_d[i];
    }
  }
}

Matrix draw(stats::Rng& rng, std::size_t rows, std::size_t dim) {
  Matrix m(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) m(i, j) = rng.normal(0.0, 2.0);
  }
  return m;
}

TEST_P(NearestCentroidVariant, MatchesNaiveLoopAtEveryEdge) {
  const ScanVariant& v = GetParam();
  util::ThreadPool pool(4);
  stats::Rng rng(0x5CA7ull);
  for (const std::size_t k : {1u, 3u, 4u, 7u, 8u, 9u, 16u, 40u, 41u, 129u}) {
    for (const std::size_t n : {36u, 37u, 38u, 39u}) {
      for (const std::size_t dim : {1u, 17u, 18u}) {
        Matrix centroids = draw(rng, k, dim);
        // Duplicate centroids: copies of 1 and 2 in other lanes, and of 1 in
        // its own lane of the next group (row 5) and of a later one (row 9).
        if (k >= 3) centroids.set_row(k - 1, centroids.row(1));
        if (k >= 6) centroids.set_row(5, centroids.row(1));
        if (k >= 9) centroids.set_row(8, centroids.row(2));
        if (k >= 10) centroids.set_row(9, centroids.row(1));
        Matrix points = draw(rng, n, dim);
        // d = 0 against a duplicated centroid: a tie the lowest index wins.
        points.set_row(0, centroids.row(k - 1));
        points.set_row(n / 2, centroids.row(k / 2));
        // A NaN and an overflowing point: every distance loses to DBL_MAX.
        points(1, 0) = std::numeric_limits<double>::quiet_NaN();
        for (std::size_t j = 0; j < dim; ++j) points(2, j) = 1e200;
        SCOPED_TRACE(::testing::Message() << "k=" << k << " n=" << n << " dim=" << dim);
        expect_naive(v, points, centroids, pool);
        if (HasFailure()) return;
      }
    }
  }
}

// Equal non-zero distances across lanes and groups: the winner is the
// lowest index even when a later lane of an earlier group holds it.
TEST_P(NearestCentroidVariant, TiesGoToTheLowestIndex) {
  const ScanVariant& v = GetParam();
  util::ThreadPool pool(4);
  Matrix centroids(20, 1, 50.0);
  centroids(9, 0) = 2.0;   // group 2, lane 1
  centroids(2, 0) = -2.0;  // group 0, lane 2: the winner
  centroids(17, 0) = 2.0;
  Matrix points(5, 1, 0.0);
  expect_naive(v, points, centroids, pool);
  std::vector<std::size_t> c(points.rows());
  std::vector<double> d(points.rows());
  v.scan(points, centroids, c, d, nullptr);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    EXPECT_EQ(c[i], 2u);
    EXPECT_EQ(d[i], 4.0);
  }
  // Every centroid identical: centroid 0 at every point.
  expect_naive(v, points, Matrix(13, 1, 3.0), pool);
}

// With x = (2⁻²⁶, 1 − 2⁻³⁰, 1 + 2⁻³⁰) and a centroid at the origin, the
// squares round to 2⁻⁵², 1 − 2⁻²⁹ and 1 + 2⁻²⁹, so the running sum reaches
// 2 + 2⁻⁵² exactly: a tie that rounds to 2. A fused multiply-add keeps the
// last square's unrounded 2⁻⁶⁰ and rounds up to 2 + 2⁻⁵¹ instead, so an FMA
// in any lane fails here.
TEST_P(NearestCentroidVariant, SeparateMultiplyAndAddNeverFuse) {
  const ScanVariant& v = GetParam();
  constexpr std::size_t kK = 17;
  Matrix points(5, 3);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    points(i, 0) = 0x1p-26;
    points(i, 1) = 1.0 - 0x1p-30;
    points(i, 2) = 1.0 + 0x1p-30;
  }
  for (std::size_t at = 0; at < kK; ++at) {
    Matrix centroids(kK, 3, 100.0);
    for (std::size_t j = 0; j < 3; ++j) centroids(at, j) = 0.0;
    std::vector<std::size_t> c(points.rows());
    std::vector<double> d(points.rows());
    v.scan(points, centroids, c, d, nullptr);
    for (std::size_t i = 0; i < points.rows(); ++i) {
      EXPECT_EQ(c[i], at);
      EXPECT_EQ(d[i], 2.0) << "centroid " << at << ", point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NearestCentroidVariants, NearestCentroidVariant,
                         ::testing::ValuesIn(kScanVariants),
                         [](const ::testing::TestParamInfo<ScanVariant>& info) {
                           return std::string(info.param.name);
                         });

TEST(NearestCentroids, RejectsMismatchedShapes) {
  const Matrix points(4, 3);
  std::vector<std::size_t> c(4);
  std::vector<double> d(4);
  EXPECT_THROW(nearest_centroids(points, Matrix(2, 2), c, d), std::invalid_argument);
  EXPECT_THROW(nearest_centroids(points, Matrix(0, 3), c, d), std::invalid_argument);
  std::vector<double> short_d(3);
  EXPECT_THROW(nearest_centroids(points, Matrix(2, 3), c, short_d),
               std::invalid_argument);
}

}  // namespace
}  // namespace flare::ml
