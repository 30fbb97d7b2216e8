#include "ml/cluster_quality.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/kmeans.hpp"
#include "stats/rng.hpp"
#include "tests/util/matrix_matchers.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {
namespace {

using linalg::Matrix;

Matrix two_blobs(double separation, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(60, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    m(i, 0) = rng.normal(0.0, 0.5);
    m(i, 1) = rng.normal(0.0, 0.5);
    m(30 + i, 0) = rng.normal(separation, 0.5);
    m(30 + i, 1) = rng.normal(0.0, 0.5);
  }
  return m;
}

std::vector<std::size_t> true_labels() {
  std::vector<std::size_t> labels(60, 0);
  for (std::size_t i = 30; i < 60; ++i) labels[i] = 1;
  return labels;
}

TEST(Sse, ZeroWhenPointsSitOnCentroids) {
  Matrix data(4, 2);
  data(0, 0) = 1.0;
  data(1, 0) = 1.0;
  data(2, 0) = 5.0;
  data(3, 0) = 5.0;
  Matrix centroids(2, 2);
  centroids(0, 0) = 1.0;
  centroids(1, 0) = 5.0;
  const std::vector<std::size_t> assignment = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(testing::sum_squared_errors(data, centroids, assignment), 0.0);
}

TEST(Sse, MatchesHandComputation) {
  Matrix data(2, 1);
  data(0, 0) = 0.0;
  data(1, 0) = 4.0;
  Matrix centroid(1, 1);
  centroid(0, 0) = 1.0;
  const std::vector<std::size_t> assignment = {0, 0};
  EXPECT_DOUBLE_EQ(testing::sum_squared_errors(data, centroid, assignment),
                   1.0 + 9.0);
}

TEST(Sse, ValidatesInput) {
  const Matrix data(3, 2);
  const Matrix centroids(2, 2);
  EXPECT_THROW((void)testing::sum_squared_errors(data, centroids, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)testing::sum_squared_errors(data, centroids, {0, 1, 5}),
               std::invalid_argument);
}

TEST(Silhouette, HighForWellSeparatedClusters) {
  const Matrix data = two_blobs(20.0, 1);
  EXPECT_GT(silhouette_score(data, true_labels(), 2), 0.9);
}

TEST(Silhouette, LowForOverlappingClusters) {
  const Matrix data = two_blobs(0.2, 2);
  EXPECT_LT(silhouette_score(data, true_labels(), 2), 0.3);
}

TEST(Silhouette, WrongLabelsScoreNegative) {
  const Matrix data = two_blobs(20.0, 3);
  // Deliberately mislabel: split each true blob across both clusters.
  std::vector<std::size_t> bad(60);
  for (std::size_t i = 0; i < 60; ++i) bad[i] = i % 2;
  EXPECT_LT(silhouette_score(data, bad, 2), 0.0);
}

TEST(Silhouette, SamplesWithinUnitBounds) {
  const Matrix data = two_blobs(3.0, 4);
  const auto samples = silhouette_samples(data, true_labels(), 2);
  EXPECT_EQ(samples.size(), 60u);
  for (const double s : samples) {
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Silhouette, SingletonClusterContributesZero) {
  Matrix data(3, 1);
  data(0, 0) = 0.0;
  data(1, 0) = 0.1;
  data(2, 0) = 10.0;
  const std::vector<std::size_t> labels = {0, 0, 1};
  const auto samples = silhouette_samples(data, labels, 2);
  EXPECT_DOUBLE_EQ(samples[2], 0.0);  // singleton convention
}

TEST(Silhouette, RequiresAtLeastTwoClusters) {
  const Matrix data(4, 1);
  EXPECT_THROW((void)silhouette_score(data, {0, 0, 0, 0}, 1),
               std::invalid_argument);
}

TEST(Silhouette, SeparationSweepIsMonotone) {
  // Property: silhouette grows with blob separation.
  double prev = -2.0;
  for (const double sep : {0.5, 2.0, 5.0, 15.0}) {
    const double s = silhouette_score(two_blobs(sep, 7), true_labels(), 2);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(QualityCurve, KMeansSilhouettePeaksAtTrueK) {
  // 3 well-separated blobs: silhouette at k=3 beats k=2 and k=6.
  stats::Rng rng(9);
  Matrix data(90, 2);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 30; ++i) {
      data(c * 30 + i, 0) = 15.0 * static_cast<double>(c) + rng.normal(0.0, 0.4);
      data(c * 30 + i, 1) = rng.normal(0.0, 0.4);
    }
  }
  double best_score = -2.0;
  std::size_t best_k = 0;
  for (const std::size_t k : {2u, 3u, 4u, 6u}) {
    KMeansParams p;
    p.k = k;
    const KMeansResult r = kmeans(data, p);
    const double s = silhouette_score(data, r.assignment, k);
    if (s > best_score) {
      best_score = s;
      best_k = k;
    }
  }
  EXPECT_EQ(best_k, 3u);
}

// --- Determinism of the cached / parallel silhouette paths (ISSUE: the
// --- shared distance matrix and the thread pool must not change any bit).

TEST(PairwiseDistances, MatchesOnTheFlyDistancesExactly) {
  const Matrix data = two_blobs(4.0, 21);
  const PairwiseDistances d = pairwise_distances(data);
  ASSERT_EQ(d.size(), data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < data.rows(); ++j) {
      EXPECT_EQ(d(i, j),
                std::sqrt(linalg::squared_distance(data.row(i), data.row(j))));
      EXPECT_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(PairwiseDistances, ParallelMatchesSerialExactly) {
  const Matrix data = two_blobs(3.0, 22);
  const PairwiseDistances serial = pairwise_distances(data);
  for (const std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    const PairwiseDistances parallel = pairwise_distances(data, &pool);
    for (std::size_t i = 0; i < data.rows(); ++i) {
      for (std::size_t j = 0; j < data.rows(); ++j) {
        ASSERT_EQ(parallel(i, j), serial(i, j));
      }
    }
  }
}

TEST(Silhouette, CachedMatchesUncachedExactly) {
  const Matrix data = two_blobs(2.5, 23);  // overlapping blobs: messy labels
  for (const std::size_t k : {2u, 3u, 5u}) {
    KMeansParams p;
    p.k = k;
    const KMeansResult r = kmeans(data, p);
    const PairwiseDistances d = pairwise_distances(data);
    // Bitwise: the sweep swaps the uncached overload for the cached one and
    // the reported curve must not change at all.
    EXPECT_EQ(silhouette_score(d, r.assignment, k),
              silhouette_score(data, r.assignment, k));
    EXPECT_EQ(silhouette_samples(d, r.assignment, k),
              silhouette_samples(data, r.assignment, k));
  }
}

TEST(Silhouette, ParallelMatchesSerialExactly) {
  const Matrix data = two_blobs(2.5, 24);
  KMeansParams p;
  p.k = 4;
  const KMeansResult r = kmeans(data, p);
  const double serial_score = silhouette_score(data, r.assignment, 4);
  const std::vector<double> serial_samples =
      silhouette_samples(data, r.assignment, 4);
  for (const std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(silhouette_score(data, r.assignment, 4, &pool), serial_score);
    EXPECT_EQ(silhouette_samples(data, r.assignment, 4, &pool), serial_samples);
    const PairwiseDistances d = pairwise_distances(data, &pool);
    EXPECT_EQ(silhouette_score(d, r.assignment, 4, &pool), serial_score);
  }
}

}  // namespace
}  // namespace flare::ml
