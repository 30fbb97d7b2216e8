#include "ml/kmeans.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "linalg/covariance.hpp"
#include "ml/cluster_quality.hpp"
#include "stats/rng.hpp"
#include "tests/util/matrix_matchers.hpp"
#include "tests/util/naive_kmeans.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace flare::ml {
namespace {

using linalg::Matrix;

/// `k` well-separated Gaussian blobs in 2-D.
Matrix blobs(std::size_t per_cluster, std::size_t k, double separation,
             std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(per_cluster * k, 2);
  for (std::size_t c = 0; c < k; ++c) {
    const double cx = separation * static_cast<double>(c);
    const double cy = separation * static_cast<double>(c % 2);
    for (std::size_t i = 0; i < per_cluster; ++i) {
      m(c * per_cluster + i, 0) = cx + rng.normal(0.0, 0.3);
      m(c * per_cluster + i, 1) = cy + rng.normal(0.0, 0.3);
    }
  }
  return m;
}

KMeansParams params_with_k(std::size_t k, std::uint64_t seed = 42) {
  KMeansParams p;
  p.k = k;
  p.seed = seed;
  return p;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  const Matrix data = blobs(50, 4, 10.0, 1);
  const KMeansResult result = kmeans(data, params_with_k(4));
  // All points of each generated blob share an assigned cluster.
  for (std::size_t c = 0; c < 4; ++c) {
    const std::size_t first = result.assignment[c * 50];
    for (std::size_t i = 1; i < 50; ++i) {
      EXPECT_EQ(result.assignment[c * 50 + i], first);
    }
  }
  // And the four blobs get four distinct labels.
  const std::set<std::size_t> labels(result.assignment.begin(),
                                     result.assignment.end());
  EXPECT_EQ(labels.size(), 4u);
}

TEST(KMeans, SseConsistentWithAssignment) {
  const Matrix data = blobs(30, 3, 8.0, 2);
  const KMeansResult result = kmeans(data, params_with_k(3));
  EXPECT_NEAR(result.sse,
              testing::sum_squared_errors(data, result.centroids, result.assignment),
              1e-9);
}

TEST(KMeans, ClusterSizesSumToN) {
  const Matrix data = blobs(25, 5, 6.0, 3);
  const KMeansResult result = kmeans(data, params_with_k(5));
  std::size_t total = 0;
  for (const std::size_t s : result.cluster_sizes) total += s;
  EXPECT_EQ(total, data.rows());
}

TEST(KMeans, DeterministicPerSeed) {
  const Matrix data = blobs(40, 3, 5.0, 4);
  const KMeansResult a = kmeans(data, params_with_k(3, 7));
  const KMeansResult b = kmeans(data, params_with_k(3, 7));
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.sse, b.sse);
}

TEST(KMeans, SseDecreasesWithMoreClusters) {
  const Matrix data = blobs(30, 6, 3.0, 5);
  double prev = 1e300;
  for (const std::size_t k : {2u, 4u, 8u, 16u}) {
    const KMeansResult r = kmeans(data, params_with_k(k));
    EXPECT_LE(r.sse, prev + 1e-9);
    prev = r.sse;
  }
}

TEST(KMeans, KEqualsNGivesZeroSse) {
  const Matrix data = blobs(3, 3, 10.0, 6);  // 9 points
  const KMeansResult r = kmeans(data, params_with_k(9));
  EXPECT_NEAR(r.sse, 0.0, 1e-12);
  for (const std::size_t s : r.cluster_sizes) EXPECT_EQ(s, 1u);
}

TEST(KMeans, KOneGivesGlobalCentroid) {
  const Matrix data = blobs(50, 2, 4.0, 7);
  const KMeansResult r = kmeans(data, params_with_k(1));
  const auto means = linalg::column_means(data);
  EXPECT_NEAR(r.centroids(0, 0), means[0], 1e-9);
  EXPECT_NEAR(r.centroids(0, 1), means[1], 1e-9);
}

TEST(KMeans, KMeansPlusPlusBeatsOrMatchesRandomInit) {
  const Matrix data = blobs(40, 8, 4.0, 8);
  KMeansParams pp = params_with_k(8);
  pp.restarts = 1;
  KMeansParams rnd = pp;
  rnd.init = KMeansInit::kRandomPoints;
  double pp_sse = 0.0, rnd_sse = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    pp.seed = seed;
    rnd.seed = seed;
    pp_sse += kmeans(data, pp).sse;
    rnd_sse += kmeans(data, rnd).sse;
  }
  EXPECT_LE(pp_sse, rnd_sse * 1.05);
}

TEST(KMeans, HandlesDuplicatePoints) {
  Matrix data(10, 2, 1.0);  // all identical
  const KMeansResult r = kmeans(data, params_with_k(3));
  EXPECT_NEAR(r.sse, 0.0, 1e-12);
  std::size_t total = 0;
  for (const std::size_t s : r.cluster_sizes) total += s;
  EXPECT_EQ(total, 10u);
}

TEST(KMeans, ValidatesArguments) {
  const Matrix data = blobs(10, 2, 5.0, 9);
  EXPECT_THROW(kmeans(data, params_with_k(0)), std::invalid_argument);
  EXPECT_THROW(kmeans(data, params_with_k(21)), std::invalid_argument);
  KMeansParams bad = params_with_k(2);
  bad.max_iterations = 0;
  EXPECT_THROW(kmeans(data, bad), std::invalid_argument);
  bad = params_with_k(2);
  bad.restarts = 0;
  EXPECT_THROW(kmeans(data, bad), std::invalid_argument);
}

TEST(KMeansResult, MembersOfPartitionTheData) {
  const Matrix data = blobs(20, 3, 6.0, 10);
  const KMeansResult r = kmeans(data, params_with_k(3));
  std::set<std::size_t> all;
  for (std::size_t c = 0; c < 3; ++c) {
    for (const std::size_t m : r.members_of(c)) {
      EXPECT_TRUE(all.insert(m).second) << "point in two clusters";
      EXPECT_EQ(r.assignment[m], c);
    }
  }
  EXPECT_EQ(all.size(), data.rows());
}

TEST(KMeansResult, NearestMemberIsClosestToCentroid) {
  const Matrix data = blobs(30, 2, 8.0, 11);
  const KMeansResult r = kmeans(data, params_with_k(2));
  for (std::size_t c = 0; c < 2; ++c) {
    const std::size_t nearest = r.nearest_member(data, c);
    const double d_near =
        linalg::squared_distance(data.row(nearest), r.centroids.row(c));
    for (const std::size_t m : r.members_of(c)) {
      EXPECT_LE(d_near,
                linalg::squared_distance(data.row(m), r.centroids.row(c)) + 1e-12);
    }
  }
}

TEST(KMeansResult, MembersByDistanceIsSortedAndComplete) {
  const Matrix data = blobs(25, 3, 7.0, 12);
  const KMeansResult r = kmeans(data, params_with_k(3));
  for (std::size_t c = 0; c < 3; ++c) {
    const auto ordered = r.members_by_distance(data, c);
    EXPECT_EQ(ordered.size(), r.cluster_sizes[c]);
    double prev = -1.0;
    for (const std::size_t m : ordered) {
      const double d = linalg::squared_distance(data.row(m), r.centroids.row(c));
      EXPECT_GE(d, prev - 1e-12);
      prev = d;
    }
    if (!ordered.empty()) {
      EXPECT_EQ(ordered.front(), r.nearest_member(data, c));
    }
  }
}

TEST(WeightedKMeans, CentroidsAreWeightedMeans) {
  // Two points, one cluster: the centroid is the weighted mean.
  Matrix data(2, 1);
  data(0, 0) = 0.0;
  data(1, 0) = 10.0;
  KMeansParams p = params_with_k(1);
  p.weights = {1.0, 3.0};
  const KMeansResult r = kmeans(data, p);
  EXPECT_NEAR(r.centroids(0, 0), 7.5, 1e-9);
}

TEST(WeightedKMeans, ZeroWeightPointsDoNotPullCentroids) {
  const Matrix data = blobs(30, 2, 10.0, 21);
  KMeansParams weighted = params_with_k(2);
  weighted.weights.assign(60, 1.0);
  // Add an outlier with zero weight.
  Matrix with_outlier(61, 2);
  for (std::size_t i = 0; i < 60; ++i) with_outlier.set_row(i, data.row(i));
  with_outlier(60, 0) = 1000.0;
  with_outlier(60, 1) = 1000.0;
  weighted.weights.push_back(0.0);
  weighted.k = 2;
  const KMeansResult r = kmeans(with_outlier, weighted);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_LT(r.centroids(c, 0), 100.0) << "zero-weight outlier moved a centroid";
  }
}

TEST(WeightedKMeans, UniformWeightsMatchUnweightedUpToRelabeling) {
  const Matrix data = blobs(25, 3, 8.0, 22);
  KMeansParams plain = params_with_k(3);
  KMeansParams uniform = params_with_k(3);
  uniform.weights.assign(data.rows(), 2.0);
  const KMeansResult a = kmeans(data, plain);
  const KMeansResult b = kmeans(data, uniform);
  // Same partition (labels may permute because the seeding streams differ).
  std::map<std::size_t, std::size_t> label_map;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto [it, inserted] = label_map.emplace(a.assignment[i], b.assignment[i]);
    EXPECT_EQ(it->second, b.assignment[i]) << "partition mismatch at point " << i;
  }
  EXPECT_NEAR(b.sse, 2.0 * a.sse, 1e-6 * a.sse);
}

TEST(WeightedKMeans, HeavyRegionAttractsMoreCentroids) {
  // 1-D: heavy mass at 0, light at 10..14; with k=3 the heavy side should
  // not be starved.
  Matrix data(25, 1);
  KMeansParams p = params_with_k(3);
  for (std::size_t i = 0; i < 20; ++i) {
    data(i, 0) = static_cast<double>(i) * 0.1;  // dense 0..2
    p.weights.push_back(100.0);
  }
  for (std::size_t i = 20; i < 25; ++i) {
    data(i, 0) = 10.0 + static_cast<double>(i - 20);
    p.weights.push_back(0.01);
  }
  const KMeansResult r = kmeans(data, p);
  int centroids_in_heavy = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    if (r.centroids(c, 0) < 5.0) ++centroids_in_heavy;
  }
  EXPECT_GE(centroids_in_heavy, 2);
}

TEST(WeightedKMeans, ValidatesWeights) {
  const Matrix data = blobs(10, 2, 5.0, 23);
  KMeansParams p = params_with_k(2);
  p.weights = {1.0};  // wrong size
  EXPECT_THROW(kmeans(data, p), std::invalid_argument);
  p.weights.assign(data.rows(), 1.0);
  p.weights[0] = -1.0;
  EXPECT_THROW(kmeans(data, p), std::invalid_argument);
}

/// Runs kmeans expecting a FaultError whose message contains `needle`.
void expect_fault(const Matrix& data, const KMeansParams& p,
                  const std::string& needle) {
  try {
    (void)kmeans(data, p);
    ADD_FAILURE() << "expected a FaultError mentioning \"" << needle << "\"";
  } catch (const FaultError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(WeightedKMeans, RejectsNonFiniteWeightsByRow) {
  // +inf passes a plain non-negativity check and would turn centroids into
  // NaN; a NaN weight is not "negative" either. Both name their row.
  const Matrix data = blobs(10, 2, 5.0, 23);
  KMeansParams p = params_with_k(2);
  p.weights.assign(data.rows(), 1.0);
  p.weights[3] = std::numeric_limits<double>::infinity();
  expect_fault(data, p, "non-finite weight at row 3");
  p.weights[3] = 1.0;
  p.weights[7] = std::numeric_limits<double>::quiet_NaN();
  expect_fault(data, p, "non-finite weight at row 7");
}

TEST(KMeans, RejectsNonFiniteDataCellsByRowAndColumn) {
  Matrix data = blobs(10, 2, 5.0, 24);
  data(4, 1) = std::numeric_limits<double>::quiet_NaN();
  expect_fault(data, params_with_k(2), "row 4, column 1");
  data(4, 1) = 0.0;
  data(12, 0) = -std::numeric_limits<double>::infinity();
  expect_fault(data, params_with_k(2), "row 12, column 0");
}

TEST(KMeansWarmStart, RejectsNonFiniteInitialCentroids) {
  const Matrix data = blobs(10, 2, 5.0, 25);
  KMeansParams p = params_with_k(2);
  p.initial_centroids = Matrix(2, 2);
  p.initial_centroids(1, 0) = std::numeric_limits<double>::infinity();
  expect_fault(data, p, "row 1, column 0");
}

class KMeansPropertySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KMeansPropertySweep, InvariantsAcrossK) {
  const std::size_t k = GetParam();
  const Matrix data = blobs(20, 6, 3.0, 13);
  const KMeansResult r = kmeans(data, params_with_k(k));
  // Every point assigned to its nearest centroid (Lloyd fixed point).
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const double assigned =
        linalg::squared_distance(data.row(i), r.centroids.row(r.assignment[i]));
    for (std::size_t c = 0; c < k; ++c) {
      EXPECT_LE(assigned,
                linalg::squared_distance(data.row(i), r.centroids.row(c)) + 1e-9);
    }
  }
  // No empty clusters after repair.
  for (const std::size_t s : r.cluster_sizes) EXPECT_GT(s, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansPropertySweep,
                         ::testing::Values(2, 3, 5, 8, 13, 18, 30));

// --- Determinism: the tiled scan and threading must reproduce the serial
// --- naive Lloyd (tests/util/naive_kmeans.hpp) bit for bit, not merely
// --- closely. The `Pruned` test names date from the bounded assignment
// --- pass the scan replaced; they check the same outputs.

/// Unstructured random data (no blob structure): centroids stay close
/// together, so many points sit near a tie.
Matrix random_cloud(std::size_t n, std::size_t dims, std::uint64_t seed) {
  stats::Rng rng(seed);
  Matrix m(n, dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dims; ++j) m(i, j) = rng.normal(0.0, 2.0);
  }
  return m;
}

void expect_bitwise_equal(const KMeansResult& a, const KMeansResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.cluster_sizes, b.cluster_sizes);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  // Bitwise, not NEAR: the tiled/parallel paths must reproduce the exact
  // doubles of the serial naive path.
  EXPECT_EQ(a.sse, b.sse);
  ASSERT_EQ(a.centroids.rows(), b.centroids.rows());
  for (std::size_t c = 0; c < a.centroids.rows(); ++c) {
    for (std::size_t j = 0; j < a.centroids.cols(); ++j) {
      ASSERT_EQ(a.centroids(c, j), b.centroids(c, j)) << "centroid " << c;
    }
  }
  ASSERT_EQ(a.point_distances.size(), b.point_distances.size());
  for (std::size_t i = 0; i < a.point_distances.size(); ++i) {
    ASSERT_EQ(a.point_distances[i], b.point_distances[i]) << "point " << i;
  }
}

TEST(KMeansDeterminism, PrunedMatchesNaiveExactlyOnRandomInputs) {
  for (const std::uint64_t seed : {1u, 7u, 99u, 1234u}) {
    for (const std::size_t dims : {2u, 7u, 18u}) {
      for (const std::size_t k : {2u, 5u, 12u}) {
        const Matrix data = random_cloud(160, dims, seed);
        const KMeansParams p = params_with_k(k, seed);
        expect_bitwise_equal(kmeans(data, p), testing::naive_kmeans(data, p));
      }
    }
  }
}

TEST(KMeansDeterminism, PrunedMatchesNaiveOnClusteredAndWeightedInputs) {
  const Matrix data = blobs(40, 6, 4.0, 17);
  KMeansParams p = params_with_k(6, 17);
  p.weights.assign(data.rows(), 1.0);
  for (std::size_t i = 0; i < data.rows(); ++i) {
    p.weights[i] = 0.5 + static_cast<double>(i % 7);
  }
  expect_bitwise_equal(kmeans(data, p), testing::naive_kmeans(data, p));
}

/// The paper's clustering shape: ~900 scenarios in a 17-dim whitened space,
/// here as uneven Gaussian blobs plus a diffuse background, with the last
/// 60 rows exact copies of earlier ones.
Matrix paper_shaped(std::uint64_t seed) {
  constexpr std::size_t kRows = 900;
  constexpr std::size_t kDims = 17;
  stats::Rng rng(seed);
  Matrix centers(12, kDims);
  for (std::size_t c = 0; c < 12; ++c) {
    for (std::size_t j = 0; j < kDims; ++j) centers(c, j) = rng.normal(0.0, 3.0);
  }
  Matrix m(kRows, kDims);
  for (std::size_t i = 0; i < kRows - 60; ++i) {
    const std::size_t c = i % 13;  // blobs 0..11, 12 = background
    const double spread = c == 12 ? 3.0 : 0.2 + 0.1 * static_cast<double>(c);
    for (std::size_t j = 0; j < kDims; ++j) {
      m(i, j) = (c == 12 ? 0.0 : centers(c, j)) + rng.normal(0.0, spread);
    }
  }
  for (std::size_t i = kRows - 60; i < kRows; ++i) {
    m.set_row(i, m.row((i * 7) % (kRows - 60)));
  }
  return m;
}

TEST(KMeansDeterminism, PrunedMatchesNaiveAtPaperShape) {
  const Matrix data = paper_shaped(918);
  std::vector<double> weights(data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    weights[i] = 0.25 + static_cast<double>((i * 31) % 11);
  }
  for (const bool weighted : {false, true}) {
    for (const std::size_t k : {2u, 17u, 18u, 40u}) {
      KMeansParams p = params_with_k(k, 918 + k);
      p.restarts = 3;
      if (weighted) p.weights = weights;
      SCOPED_TRACE(::testing::Message() << "k=" << k << " weighted=" << weighted);
      expect_bitwise_equal(kmeans(data, p), testing::naive_kmeans(data, p));
    }
  }
}

// The scan tiles 4 points × 4 centroid lanes: point counts on every n mod 4
// and k either side of a lane group must match the naive scan, weighted,
// with duplicate rows.
TEST(KMeansDeterminism, MatchesNaiveAtTileEdges) {
  for (const std::size_t n : {1020u, 1021u, 1022u, 1023u}) {
    for (const std::size_t k : {7u, 9u, 33u}) {
      Matrix data = random_cloud(n, 3, 77);
      for (std::size_t i = 0; i < 40; ++i) data.set_row(n - 1 - i, data.row(i));
      KMeansParams p = params_with_k(k, 77);
      p.restarts = 2;
      p.weights.assign(n, 1.0);
      for (std::size_t i = 0; i < n; i += 5) p.weights[i] = 3.5;
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k);
      expect_bitwise_equal(kmeans(data, p), testing::naive_kmeans(data, p));
    }
  }
}

TEST(KMeansDeterminism, PrunedHandlesDuplicatePoints) {
  // Duplicate rows force zero distances and duplicate centroids — the d == 0
  // tie edge of the scan.
  Matrix data(30, 3);
  stats::Rng rng(5);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const double v = rng.normal();
      data(i, j) = v;
      data(10 + i, j) = v;  // exact duplicate
      data(20 + i, j) = rng.normal(8.0, 0.1);
    }
  }
  for (const std::size_t k : {2u, 4u, 8u}) {
    const KMeansParams p = params_with_k(k, 3);
    expect_bitwise_equal(kmeans(data, p), testing::naive_kmeans(data, p));
  }
}

TEST(KMeansDeterminism, IdenticalForEveryThreadCount) {
  const Matrix data = random_cloud(200, 9, 31);
  const KMeansParams p = params_with_k(7, 31);
  const KMeansResult serial = kmeans(data, p);
  for (const std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    expect_bitwise_equal(kmeans(data, p, &pool), serial);
  }
}

TEST(KMeansDeterminism, PointDistancesMatchRecomputation) {
  // A small fit and a 4100-point one with k = 40 (ten 4-lane groups).
  for (const auto& [per_cluster, k] :
       {std::pair<std::size_t, std::size_t>{25, 4}, {1025, 40}}) {
    const Matrix data = blobs(per_cluster, 4, 5.0, 11);
    KMeansParams p = params_with_k(k, 11);
    p.restarts = 2;
    const KMeansResult r = kmeans(data, p);
    ASSERT_EQ(r.point_distances.size(), data.rows());
    for (std::size_t i = 0; i < data.rows(); ++i) {
      ASSERT_EQ(r.point_distances[i],
                linalg::squared_distance(data.row(i),
                                         r.centroids.row(r.assignment[i])))
          << "n=" << data.rows() << " point " << i;
    }
  }
}

TEST(KMeansWarmStart, ConvergedCentroidsAreAFixedPoint) {
  const Matrix data = blobs(40, 3, 9.0, 21);
  KMeansParams p = params_with_k(3, 21);
  p.restarts = 1;  // isolate restart 0, the one the warm start replaces
  const KMeansResult cold = kmeans(data, p);
  KMeansParams warm = p;
  warm.initial_centroids = cold.centroids;
  const KMeansResult r = kmeans(data, warm);
  // Lloyd from an already-converged solution reproduces it exactly.
  EXPECT_EQ(r.assignment, cold.assignment);
  EXPECT_EQ(r.sse, cold.sse);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(r.centroids(c, j), cold.centroids(c, j));
    }
  }
}

TEST(KMeansWarmStart, OtherRestartsStillCompete) {
  // A deliberately terrible warm start (all centroids on one point) must not
  // win: the remaining seeded restarts find the separated blobs.
  const Matrix data = blobs(40, 4, 10.0, 23);
  KMeansParams p = params_with_k(4, 23);
  p.restarts = 4;
  const KMeansResult cold = kmeans(data, p);
  KMeansParams warm = p;
  warm.initial_centroids = Matrix(4, 2);  // four all-zero centroids
  const KMeansResult r = kmeans(data, warm);
  EXPECT_LE(r.sse, cold.sse * 1.0001);
}

TEST(KMeansWarmStart, WrongRowCountIsIgnored) {
  const Matrix data = blobs(30, 3, 8.0, 27);
  const KMeansParams p = params_with_k(3, 27);
  KMeansParams stale = p;
  stale.initial_centroids = Matrix(5, 2);  // k changed since the centroids
  expect_bitwise_equal(kmeans(data, stale), kmeans(data, p));
}

TEST(KMeansWarmStart, ValidatesColumnCount) {
  const Matrix data = blobs(30, 3, 8.0, 29);
  KMeansParams p = params_with_k(3, 29);
  p.initial_centroids = Matrix(3, 5);  // wrong dimensionality
  EXPECT_THROW(kmeans(data, p), std::invalid_argument);
}

// A k-sweep draws each restart's seeding picks once at its largest k and
// starts every k from a prefix of them; each fit must be the unseeded
// kmeans' bit for bit under either seeding policy, weighted or not, on 4
// threads or none, including the k whose restart 0 takes a warm start.
TEST(KMeansSeeds, EverySweepPointMatchesAStandaloneFit) {
  const Matrix data = paper_shaped(918);
  util::ThreadPool pool(4);
  for (const auto& [init, weighted] :
       {std::pair{KMeansInit::kKMeansPlusPlus, false},
        std::pair{KMeansInit::kKMeansPlusPlus, true},
        std::pair{KMeansInit::kRandomPoints, true}}) {
    KMeansParams p = params_with_k(2, 918);
    p.restarts = 3;
    p.init = init;
    if (weighted) {
      p.weights.resize(data.rows());
      for (std::size_t i = 0; i < data.rows(); ++i) {
        p.weights[i] = 0.25 + static_cast<double>((i * 31) % 11);
      }
    }
    KMeansParams warm_fit = p;
    warm_fit.k = 7;
    warm_fit.seed = 5;
    p.initial_centroids = kmeans(data, warm_fit).centroids;
    const KMeansSeeds seeds = kmeans_seeds(data, p, 12, &pool);
    for (std::size_t k = 2; k <= 12; ++k) {
      KMeansParams at_k = p;
      at_k.k = k;
      SCOPED_TRACE(::testing::Message() << "k=" << k << " weighted=" << weighted
                                        << " random init=" << (init == KMeansInit::kRandomPoints));
      const KMeansResult alone = kmeans(data, at_k);
      expect_bitwise_equal(kmeans(data, at_k, seeds), alone);
      expect_bitwise_equal(kmeans(data, at_k, seeds, &pool), alone);
    }
  }
}

TEST(KMeansSeeds, ShorterDrawsArePrefixes) {
  const Matrix data = random_cloud(90, 4, 8);
  KMeansParams p = params_with_k(3, 8);
  p.restarts = 4;
  const KMeansSeeds full = kmeans_seeds(data, p, 20);
  const KMeansSeeds part = kmeans_seeds(data, p, 6);
  util::ThreadPool pool(3);
  EXPECT_EQ(kmeans_seeds(data, p, 20, &pool), full);
  ASSERT_EQ(full.size(), 4u);
  for (std::size_t r = 0; r < full.size(); ++r) {
    ASSERT_EQ(full[r].size(), 20u);
    EXPECT_EQ(part[r], std::vector<std::size_t>(full[r].begin(), full[r].begin() + 6));
  }
}

TEST(KMeansSeeds, ValidatesArguments) {
  const Matrix data = random_cloud(10, 2, 9);
  KMeansParams p = params_with_k(3, 9);
  p.restarts = 2;
  EXPECT_THROW((void)kmeans_seeds(data, p, 0), std::invalid_argument);
  EXPECT_THROW((void)kmeans_seeds(data, p, 11), std::invalid_argument);
  KMeansSeeds seeds = kmeans_seeds(data, p, 3);
  p.k = 4;  // more than the 3 picks drawn
  EXPECT_THROW((void)kmeans(data, p, seeds), std::invalid_argument);
  p.k = 3;
  seeds[1][2] = 10;  // not a row
  EXPECT_THROW((void)kmeans(data, p, seeds), std::invalid_argument);
  seeds.pop_back();  // one restart short
  EXPECT_THROW((void)kmeans(data, p, seeds), std::invalid_argument);
}

TEST(KMeansDeterminism, NearestMemberUsesCachedDistances) {
  const Matrix data = blobs(25, 4, 5.0, 19);
  const KMeansResult r = kmeans(data, params_with_k(4, 19));
  for (std::size_t c = 0; c < 4; ++c) {
    const std::size_t nearest = r.nearest_member(data, c);
    EXPECT_EQ(r.assignment[nearest], c);
    for (std::size_t i = 0; i < data.rows(); ++i) {
      if (r.assignment[i] != c) continue;
      EXPECT_LE(r.point_distances[nearest], r.point_distances[i]);
    }
  }
}

}  // namespace
}  // namespace flare::ml
