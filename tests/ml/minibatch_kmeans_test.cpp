#include "ml/minibatch_kmeans.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "ml/cluster_quality.hpp"
#include "stats/rng.hpp"
#include "tests/util/comembership.hpp"

namespace flare::ml {
namespace {

using testing::comembership_agreement;

// Well-separated Gaussian blobs: the regime where exact and coreset K-means
// must agree on the partition (FLARE clusters are far tighter than this).
linalg::Matrix make_blobs(std::size_t n, std::size_t dims, std::size_t blobs,
                          std::uint64_t seed,
                          std::vector<std::size_t>* truth = nullptr) {
  stats::Rng rng(seed);
  linalg::Matrix data(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blob = i % blobs;
    if (truth != nullptr) truth->push_back(blob);
    for (std::size_t d = 0; d < dims; ++d) {
      const double center = (d % blobs == blob) ? 12.0 : 0.0;
      data(i, d) = center + rng.normal(0.0, 1.0);
    }
  }
  return data;
}

TEST(BuildCoresetTest, PreservesTotalWeightAndPointsValidRows) {
  const std::size_t n = 4000;
  const linalg::Matrix data = make_blobs(n, 6, 3, 11);
  CoresetParams params;
  params.size = 256;
  const Coreset coreset = build_coreset(data, params);

  ASSERT_GT(coreset.points.rows(), 0u);
  EXPECT_LE(coreset.points.rows(), params.size);
  EXPECT_EQ(coreset.points.cols(), data.cols());
  ASSERT_EQ(coreset.weights.size(), coreset.points.rows());
  ASSERT_EQ(coreset.source_rows.size(), coreset.points.rows());

  // Unbiased estimator: the coreset mass concentrates around the population
  // size (sampling with replacement — exact equality only in expectation),
  // and every sampled point is a real row of the input.
  const double mass = std::accumulate(coreset.weights.begin(),
                                      coreset.weights.end(), 0.0);
  EXPECT_NEAR(mass, static_cast<double>(n), 0.05 * static_cast<double>(n));
  for (std::size_t i = 0; i < coreset.points.rows(); ++i) {
    ASSERT_LT(coreset.source_rows[i], n);
    for (std::size_t d = 0; d < data.cols(); ++d) {
      EXPECT_EQ(coreset.points(i, d), data(coreset.source_rows[i], d));
    }
    EXPECT_GT(coreset.weights[i], 0.0);
  }
}

TEST(BuildCoresetTest, RespectsPointWeights) {
  const std::size_t n = 1200;
  const linalg::Matrix data = make_blobs(n, 4, 2, 17);
  std::vector<double> weights(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 5);
    total += weights[i];
  }
  CoresetParams params;
  params.size = 128;
  const Coreset coreset = build_coreset(data, params, weights);
  const double mass = std::accumulate(coreset.weights.begin(),
                                      coreset.weights.end(), 0.0);
  EXPECT_NEAR(mass, total, 0.05 * total);
}

TEST(BuildCoresetTest, DeterministicUnderFixedSeed) {
  const linalg::Matrix data = make_blobs(600, 5, 3, 23);
  CoresetParams params;
  params.size = 96;
  const Coreset a = build_coreset(data, params);
  const Coreset b = build_coreset(data, params);
  EXPECT_EQ(a.source_rows, b.source_rows);
  EXPECT_EQ(a.weights, b.weights);
  params.seed = 43;
  const Coreset c = build_coreset(data, params);
  EXPECT_NE(a.source_rows, c.source_rows);
}

TEST(MiniBatchKMeansTest, FallsBackToExactWhenDataIsSmall) {
  const linalg::Matrix data = make_blobs(200, 6, 4, 31);
  MiniBatchKMeansParams params;
  params.kmeans.k = 4;
  params.coreset.size = 1024;  // > n → nothing to subsample
  const KMeansResult fast = minibatch_kmeans(data, params);
  const KMeansResult exact = kmeans(data, params.kmeans);
  EXPECT_EQ(fast.assignment, exact.assignment);
  EXPECT_EQ(fast.centroids.data(), exact.centroids.data());
  EXPECT_EQ(fast.sse, exact.sse);
}

TEST(MiniBatchKMeansTest, RecoversBlobPartition) {
  std::vector<std::size_t> truth;
  const linalg::Matrix data = make_blobs(3000, 8, 4, 7, &truth);
  MiniBatchKMeansParams params;
  params.kmeans.k = 4;
  params.coreset.size = 300;
  const KMeansResult result = minibatch_kmeans(data, params);
  ASSERT_EQ(result.assignment.size(), 3000u);
  EXPECT_GE(comembership_agreement(result.assignment, truth), 0.98);
  // Full-data fields are populated for downstream representative extraction.
  ASSERT_EQ(result.point_distances.size(), 3000u);
  EXPECT_GT(result.sse, 0.0);
}

TEST(MiniBatchKMeansTest, DeterministicAcrossRuns) {
  const linalg::Matrix data = make_blobs(1500, 6, 3, 13);
  MiniBatchKMeansParams params;
  params.kmeans.k = 3;
  params.coreset.size = 200;
  const KMeansResult a = minibatch_kmeans(data, params);
  const KMeansResult b = minibatch_kmeans(data, params);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids.data(), b.centroids.data());
}

TEST(ComembershipTest, IdenticalPartitionsScoreOne) {
  std::vector<std::size_t> a = {0, 0, 1, 1, 2, 2, 0, 1};
  EXPECT_EQ(comembership_agreement(a, a), 1.0);
  // Label permutation does not matter.
  std::vector<std::size_t> b = {2, 2, 0, 0, 1, 1, 2, 0};
  EXPECT_EQ(comembership_agreement(a, b), 1.0);
}

TEST(ComembershipTest, DisagreementIsPenalised) {
  const std::vector<std::size_t> a = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<std::size_t> b = {0, 1, 0, 1, 0, 1, 0, 1};
  const double agreement = comembership_agreement(a, b);
  EXPECT_LT(agreement, 0.7);
  EXPECT_GT(agreement, 0.0);
}

TEST(SampledSilhouetteTest, MatchesExactWhenSampleCoversAllRows) {
  std::vector<std::size_t> truth;
  const linalg::Matrix data = make_blobs(240, 5, 3, 19, &truth);
  const double exact = silhouette_score(data, truth, 3);
  const double sampled =
      silhouette_score_sampled(data, truth, 3, /*sample_size=*/240, /*seed=*/1);
  EXPECT_EQ(sampled, exact);
  const double oversampled =
      silhouette_score_sampled(data, truth, 3, /*sample_size=*/10000, /*seed=*/1);
  EXPECT_EQ(oversampled, exact);
}

TEST(SampledSilhouetteTest, EstimateIsCloseAndSeedDeterministic) {
  std::vector<std::size_t> truth;
  const linalg::Matrix data = make_blobs(2000, 6, 4, 29, &truth);
  const double exact = silhouette_score(data, truth, 4);
  const double est_a =
      silhouette_score_sampled(data, truth, 4, /*sample_size=*/400, /*seed=*/5);
  const double est_b =
      silhouette_score_sampled(data, truth, 4, /*sample_size=*/400, /*seed=*/5);
  EXPECT_EQ(est_a, est_b);
  // Tight blobs: a 20% sample must land close to the exact score.
  EXPECT_NEAR(est_a, exact, 0.05);
}

}  // namespace
}  // namespace flare::ml
