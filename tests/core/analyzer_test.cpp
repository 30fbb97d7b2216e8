#include "core/analyzer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "ml/cluster_quality.hpp"
#include "stats/descriptive.hpp"
#include "tests/core/test_env.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace flare::core {
namespace {

class AnalyzerTest : public ::testing::Test {
 protected:
  // Fit once for the whole suite via the shared environment.
  const AnalysisResult& analysis_ = testing::fitted_pipeline().analysis();
  const metrics::MetricDatabase& db_ = testing::fitted_pipeline().database();
};

TEST_F(AnalyzerTest, RefinementDropsConstantAndDuplicateColumns) {
  EXPECT_LT(analysis_.kept_columns.size(), db_.num_metrics());
  EXPECT_FALSE(analysis_.refinement.drops.empty());
  EXPECT_FALSE(analysis_.constant_columns.empty())
      << "Freq_GHz is constant on a homogeneous fleet";
  // Kept + dropped partitions the catalog.
  std::set<std::size_t> seen(analysis_.kept_columns.begin(),
                             analysis_.kept_columns.end());
  for (const auto& d : analysis_.refinement.drops) {
    EXPECT_TRUE(seen.insert(d.dropped_column).second);
    EXPECT_EQ(seen.count(d.kept_column), 1u) << "drops must reference kept columns";
  }
  for (const std::size_t c : analysis_.constant_columns) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  EXPECT_EQ(seen.size(), db_.num_metrics());
}

TEST_F(AnalyzerTest, RefinementKeepsMostOfTheSchema) {
  // Paper: 100+ -> 85. We accept a broad band around that ratio.
  const double kept_ratio = static_cast<double>(analysis_.kept_columns.size()) /
                            static_cast<double>(db_.num_metrics());
  EXPECT_GT(kept_ratio, 0.5);
  EXPECT_LT(kept_ratio, 0.95);
}

TEST_F(AnalyzerTest, PcaReachesVarianceTarget) {
  EXPECT_GE(analysis_.pca.cumulative_explained_variance(analysis_.num_components),
            0.95);
  if (analysis_.num_components > 1) {
    EXPECT_LT(analysis_.pca.cumulative_explained_variance(
                  analysis_.num_components - 1),
              0.95);
  }
}

TEST_F(AnalyzerTest, InterpretationsCoverSelectedComponents) {
  ASSERT_EQ(analysis_.interpretations.size(), analysis_.num_components);
  for (std::size_t i = 0; i < analysis_.interpretations.size(); ++i) {
    const PcInterpretation& pc = analysis_.interpretations[i];
    EXPECT_EQ(pc.component, i);
    EXPECT_FALSE(pc.label.empty());
    EXPECT_GT(pc.explained_variance_ratio, 0.0);
  }
}

TEST_F(AnalyzerTest, ClusterSpaceIsWhite) {
  for (std::size_t c = 0; c < analysis_.cluster_space.cols(); ++c) {
    const auto col = analysis_.cluster_space.column(c);
    EXPECT_NEAR(stats::mean(col), 0.0, 1e-8);
    EXPECT_NEAR(stats::variance(col), 1.0, 1e-8);
  }
}

TEST_F(AnalyzerTest, ClusteringPartitionsAllScenarios) {
  EXPECT_EQ(analysis_.chosen_k, 8u);  // fixed in the test config
  EXPECT_EQ(analysis_.clustering.assignment.size(), db_.num_rows());
  std::size_t total = 0;
  for (const std::size_t s : analysis_.clustering.cluster_sizes) total += s;
  EXPECT_EQ(total, db_.num_rows());
}

TEST_F(AnalyzerTest, RepresentativesBelongToTheirClusters) {
  ASSERT_EQ(analysis_.representatives.size(), analysis_.chosen_k);
  for (std::size_t c = 0; c < analysis_.chosen_k; ++c) {
    const std::size_t rep = analysis_.representatives[c];
    EXPECT_EQ(analysis_.clustering.assignment[rep], c);
    EXPECT_EQ(rep, analysis_.clustering.nearest_member(analysis_.cluster_space, c));
  }
}

TEST_F(AnalyzerTest, ClusterWeightsFormADistribution) {
  double sum = 0.0;
  for (const double w : analysis_.cluster_weights) {
    EXPECT_GE(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(AnalyzerTest, MembersByDistanceStartsAtRepresentative) {
  for (std::size_t c = 0; c < analysis_.chosen_k; ++c) {
    const auto ordered = analysis_.members_by_distance(c);
    ASSERT_FALSE(ordered.empty());
    EXPECT_EQ(ordered.front(), analysis_.representatives[c]);
  }
}

TEST(AnalyzerSweep, QualityCurveHasMonotoneSse) {
  AnalyzerConfig config;
  config.fixed_clusters = 6;
  config.min_clusters = 2;
  config.max_clusters = 12;
  config.compute_quality_curve = true;
  const Analyzer analyzer(config);
  const dcsim::InterferenceModel model;
  const Profiler profiler(model);
  const auto db =
      profiler.profile(testing::small_scenario_set(), dcsim::default_machine());
  const AnalysisResult result = analyzer.analyze(db);
  ASSERT_EQ(result.quality_curve.size(), 11u);
  for (std::size_t i = 1; i < result.quality_curve.size(); ++i) {
    // K-means SSE decreases (weakly, allowing local-optimum jitter) with k.
    EXPECT_LT(result.quality_curve[i].sse, result.quality_curve[i - 1].sse * 1.05);
    EXPECT_GE(result.quality_curve[i].silhouette, -1.0);
    EXPECT_LE(result.quality_curve[i].silhouette, 1.0);
  }
}

// Under auto-k the clustering is the sweep's own solve of the chosen k; it
// must equal a fresh fit at that k bit for bit, for any thread count.
TEST(AnalyzerSweep, AutoKClusteringMatchesAFixedKFit) {
  AnalyzerConfig config = testing::small_flare_config().analyzer;
  config.fixed_clusters = std::nullopt;
  config.compute_quality_curve = true;
  config.max_clusters = 10;
  config.threads = 2;
  const metrics::MetricDatabase& db = testing::fitted_pipeline().database();
  const AnalysisResult automatic = Analyzer(config).analyze(db);

  config.fixed_clusters = automatic.chosen_k;
  config.compute_quality_curve = false;
  config.threads = 1;
  const AnalysisResult fixed = Analyzer(config).analyze(db);

  const ml::KMeansResult& a = automatic.clustering;
  const ml::KMeansResult& b = fixed.clustering;
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.cluster_sizes, b.cluster_sizes);
  EXPECT_EQ(a.point_distances, b.point_distances);
  EXPECT_EQ(a.sse, b.sse);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(automatic.representatives, fixed.representatives);
  EXPECT_EQ(automatic.cluster_weights, fixed.cluster_weights);
}

// The sweep seeds each restart once at k_hi and starts every k from a
// prefix of those picks. Every sweep point, weighted and with restart 0
// warm-started at the warm centroids' k, must score exactly what a
// standalone ml::kmeans at that k scores.
TEST(AnalyzerSweep, EverySweepPointMatchesAStandaloneFit) {
  AnalyzerConfig config = testing::small_flare_config().analyzer;
  config.fixed_clusters = std::nullopt;
  config.compute_quality_curve = true;
  config.max_clusters = 12;
  config.weight_clustering_by_observation = true;
  const AnalysisResult& fitted = testing::fitted_pipeline().analysis();
  const linalg::Matrix& space = fitted.cluster_space;
  std::vector<double> weights(space.rows());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.5 + static_cast<double>((i * 7) % 5);
  }
  const linalg::Matrix& warm = fitted.clustering.centroids;
  ASSERT_GE(warm.rows(), config.min_clusters);
  ASSERT_LE(warm.rows(), config.max_clusters);
  util::ThreadPool pool(2);
  const stages::ClusterOutput out =
      stages::cluster(space, weights, config, &pool, warm);
  ASSERT_EQ(out.quality_curve.size(), config.max_clusters - config.min_clusters + 1);
  const ml::PairwiseDistances distances = ml::pairwise_distances(space);
  for (const ClusterQualityPoint& point : out.quality_curve) {
    ml::KMeansParams params = config.kmeans;
    params.k = point.k;
    params.weights = weights;
    params.initial_centroids = warm;
    const ml::KMeansResult alone = ml::kmeans(space, params);
    EXPECT_EQ(point.sse, alone.sse) << "k=" << point.k;
    EXPECT_EQ(point.silhouette,
              ml::silhouette_score(distances, alone.assignment, point.k))
        << "k=" << point.k;
    if (point.k == out.chosen_k) {
      EXPECT_EQ(out.clustering.assignment, alone.assignment);
      EXPECT_EQ(out.clustering.point_distances, alone.point_distances);
      EXPECT_EQ(out.clustering.centroids, alone.centroids);
    }
  }
}

TEST(AnalyzerStages, RepresentativesNameThemselvesOnZeroWeight) {
  const AnalysisResult& fitted = testing::fitted_pipeline().analysis();
  const std::vector<double> zeros(fitted.cluster_space.rows(), 0.0);
  try {
    (void)stages::representatives(fitted.clustering, fitted.cluster_space,
                                  fitted.chosen_k, zeros, false);
    ADD_FAILURE() << "expected an invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "stages::representatives: zero total observation weight");
  }
}

TEST(AnalyzerAblation, SkippingRefinementStillWorks) {
  AnalyzerConfig config = testing::small_flare_config().analyzer;
  config.use_correlation_filter = false;
  const Analyzer analyzer(config);
  const AnalysisResult result = analyzer.analyze(testing::fitted_pipeline().database());
  EXPECT_TRUE(result.refinement.drops.empty());
  EXPECT_GT(result.kept_columns.size(),
            testing::fitted_pipeline().analysis().kept_columns.size());
  EXPECT_EQ(result.representatives.size(), result.chosen_k);
}

TEST(AnalyzerAblation, UnwhitenedClusteringWorks) {
  AnalyzerConfig config = testing::small_flare_config().analyzer;
  config.whiten = false;
  const Analyzer analyzer(config);
  const AnalysisResult result = analyzer.analyze(testing::fitted_pipeline().database());
  // Without whitening the first PC dominates: column variances differ.
  const double v0 = stats::variance(result.cluster_space.column(0));
  const double vl = stats::variance(
      result.cluster_space.column(result.cluster_space.cols() - 1));
  EXPECT_GT(v0, vl * 2.0);
}

TEST(AnalyzerAblation, WardAgglomerativeAlternative) {
  AnalyzerConfig config = testing::small_flare_config().analyzer;
  config.algorithm = ClusterAlgorithm::kWardAgglomerative;
  const Analyzer analyzer(config);
  const AnalysisResult result = analyzer.analyze(testing::fitted_pipeline().database());
  EXPECT_EQ(result.chosen_k, 8u);
  std::size_t total = 0;
  for (const std::size_t s : result.clustering.cluster_sizes) total += s;
  EXPECT_EQ(total, testing::fitted_pipeline().database().num_rows());
  // Representatives still valid members.
  for (std::size_t c = 0; c < result.chosen_k; ++c) {
    EXPECT_EQ(result.clustering.assignment[result.representatives[c]], c);
  }
}

TEST(AnalyzerRecluster, ReweightingMovesClusterWeights) {
  const Analyzer analyzer(testing::small_flare_config().analyzer);
  const AnalysisResult& base = testing::fitted_pipeline().analysis();
  // Concentrate all weight on the members of cluster 0.
  std::vector<double> weights(base.cluster_space.rows(), 0.0);
  for (const std::size_t m : base.clustering.members_of(0)) weights[m] = 1.0;
  const AnalysisResult result = analyzer.recluster(base, weights, nullptr);
  double sum = 0.0;
  for (const double w : result.cluster_weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Representatives must be scenarios that still occur.
  for (std::size_t c = 0; c < result.chosen_k; ++c) {
    if (result.cluster_weights[c] > 0.0) {
      EXPECT_GT(weights[result.representatives[c]], 0.0);
    }
  }
}

TEST(AnalyzerRecluster, ValidatesWeights) {
  const Analyzer analyzer(testing::small_flare_config().analyzer);
  const AnalysisResult& base = testing::fitted_pipeline().analysis();
  EXPECT_THROW(analyzer.recluster(base, {1.0, 2.0}, nullptr), std::invalid_argument);
  std::vector<double> negative(base.cluster_space.rows(), 1.0);
  negative[0] = -1.0;
  EXPECT_THROW(analyzer.recluster(base, negative, nullptr), std::invalid_argument);
  const std::vector<double> zeros(base.cluster_space.rows(), 0.0);
  EXPECT_THROW(analyzer.recluster(base, zeros, nullptr), std::invalid_argument);
  // A non-finite weight is a measurement fault, rejected up front (before
  // K-means sees it) and named by its row.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> weights(base.cluster_space.rows(), 1.0);
    weights[3] = bad;
    try {
      (void)analyzer.recluster(base, weights, nullptr);
      ADD_FAILURE() << "non-finite weight " << bad << " was accepted";
    } catch (const FaultError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "Analyzer::recluster: non-finite weight at row 3"),
                std::string::npos)
          << e.what();
    }
  }
}

// stages::absorb_rows (the kValid/kReweight ingest path) applies the same
// weight contract as recluster.
TEST(AnalyzerAbsorbRows, ValidatesWeights) {
  const AnalysisResult& base = testing::fitted_pipeline().analysis();
  const std::size_t n = base.cluster_space.rows();
  const linalg::Matrix fresh =
      base.cluster_space.select_rows(std::vector<std::size_t>{0, 1});
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    AnalysisResult analysis = base;
    std::vector<double> weights(n + 2, 1.0);
    weights[n + 1] = bad;
    try {
      stages::absorb_rows(analysis, fresh, weights,
                          /*refresh_representatives=*/false);
      ADD_FAILURE() << "non-finite weight " << bad << " was accepted";
    } catch (const FaultError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "stages::absorb_rows: non-finite weight at row " +
                    std::to_string(n + 1)),
                std::string::npos)
          << e.what();
    }
  }
  AnalysisResult analysis = base;
  std::vector<double> negative(n + 2, 1.0);
  negative[0] = -1.0;
  EXPECT_THROW(stages::absorb_rows(analysis, fresh, negative, false),
               std::invalid_argument);
}

TEST(AnalyzerSuggestK, FindsTheSseElbow) {
  // Steep SSE drop until k=6, then flat; silhouette flat. The Fig. 9
  // "diminishing returns" rule should land at (or just past) the elbow.
  std::vector<ClusterQualityPoint> curve;
  for (std::size_t k = 2; k <= 20; ++k) {
    ClusterQualityPoint p;
    p.k = k;
    p.sse = k < 6 ? 1000.0 - 150.0 * static_cast<double>(k)
                  : 120.0 - 2.0 * static_cast<double>(k);
    p.silhouette = 0.3;
    curve.push_back(p);
  }
  const std::size_t k = Analyzer::suggest_k(curve, 0.05);
  EXPECT_GE(k, 5u);
  EXPECT_LE(k, 12u);
}

TEST(AnalyzerSuggestK, SilhouetteBreaksTiesPastTheElbow) {
  // Same elbow, but a clear silhouette peak at k=9 within the window.
  std::vector<ClusterQualityPoint> curve;
  for (std::size_t k = 2; k <= 20; ++k) {
    ClusterQualityPoint p;
    p.k = k;
    p.sse = k < 6 ? 1000.0 - 150.0 * static_cast<double>(k)
                  : 120.0 - 2.0 * static_cast<double>(k);
    p.silhouette = k == 9 ? 0.9 : 0.2;
    curve.push_back(p);
  }
  EXPECT_EQ(Analyzer::suggest_k(curve, 0.05), 9u);
}

TEST(AnalyzerSuggestK, HandlesTinyCurves) {
  ClusterQualityPoint p;
  p.k = 4;
  EXPECT_EQ(Analyzer::suggest_k({p}, 0.05), 4u);
}

// ISSUE determinism criterion: the full analysis — sweep, clustering,
// representatives — must be bit-identical for every thread count.
TEST(AnalyzerDeterminism, IdenticalForEveryThreadCount) {
  AnalyzerConfig config = testing::small_flare_config().analyzer;
  config.fixed_clusters = 6;
  config.compute_quality_curve = true;
  config.max_clusters = 10;  // keep the sweep small; 2..10 still exercises it
  config.threads = 1;
  const metrics::MetricDatabase& db = testing::fitted_pipeline().database();
  const AnalysisResult serial = Analyzer(config).analyze(db);
  ASSERT_EQ(serial.quality_curve.size(), 9u);

  for (const std::size_t threads : {2u, 8u}) {
    config.threads = threads;
    const AnalysisResult parallel = Analyzer(config).analyze(db);
    EXPECT_EQ(parallel.representatives, serial.representatives);
    EXPECT_EQ(parallel.clustering.assignment, serial.clustering.assignment);
    EXPECT_EQ(parallel.clustering.sse, serial.clustering.sse);
    EXPECT_EQ(parallel.clustering.point_distances,
              serial.clustering.point_distances);
    EXPECT_EQ(parallel.cluster_weights, serial.cluster_weights);
    EXPECT_EQ(parallel.chosen_k, serial.chosen_k);
    ASSERT_EQ(parallel.quality_curve.size(), serial.quality_curve.size());
    for (std::size_t i = 0; i < serial.quality_curve.size(); ++i) {
      EXPECT_EQ(parallel.quality_curve[i].k, serial.quality_curve[i].k);
      EXPECT_EQ(parallel.quality_curve[i].sse, serial.quality_curve[i].sse);
      EXPECT_EQ(parallel.quality_curve[i].silhouette,
                serial.quality_curve[i].silhouette);
    }
    // PCA feeds the cluster space; its covariance is parallelised too.
    ASSERT_EQ(parallel.cluster_space.rows(), serial.cluster_space.rows());
    for (std::size_t i = 0; i < serial.cluster_space.rows(); ++i) {
      for (std::size_t j = 0; j < serial.cluster_space.cols(); ++j) {
        ASSERT_EQ(parallel.cluster_space(i, j), serial.cluster_space(i, j));
      }
    }
  }
}

// ISSUE bit-identity criterion: the staged fit must reproduce the exact
// bytes the monolithic pre-refactor analyze() produced. The constant below
// was captured by hashing that implementation's output for this setup
// (150-scenario default-machine set, k=8, no quality curve) before the
// stage-graph refactor landed.
TEST(AnalyzerGolden, FitIsBitIdenticalToPreRefactorCapture) {
  dcsim::SubmissionConfig sub;
  sub.target_distinct_scenarios = 150;
  const dcsim::ScenarioSet set =
      dcsim::generate_scenario_set(sub, dcsim::default_machine());
  FlareConfig config;
  config.analyzer.fixed_clusters = 8;
  config.analyzer.compute_quality_curve = false;
  FlarePipeline pipeline(config);
  pipeline.fit(set);
  const AnalysisResult& a = pipeline.analysis();

  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&](const void* p, std::size_t n) {
    h = util::fnv1a(std::string_view(static_cast<const char*>(p), n), h);
  };
  mix(a.kept_columns.data(), a.kept_columns.size() * sizeof(std::size_t));
  mix(&a.num_components, sizeof(a.num_components));
  mix(a.cluster_space.data().data(),
      a.cluster_space.data().size() * sizeof(double));
  mix(&a.chosen_k, sizeof(a.chosen_k));
  mix(a.clustering.assignment.data(),
      a.clustering.assignment.size() * sizeof(std::size_t));
  mix(a.clustering.point_distances.data(),
      a.clustering.point_distances.size() * sizeof(double));
  mix(&a.clustering.sse, sizeof(double));
  mix(a.representatives.data(), a.representatives.size() * sizeof(std::size_t));
  mix(a.cluster_weights.data(), a.cluster_weights.size() * sizeof(double));
  EXPECT_EQ(h, 0x8d2548b8333dcaefull);
}

TEST(AnalyzerConfigValidation, RejectsBadRanges) {
  AnalyzerConfig bad;
  bad.variance_target = 0.0;
  EXPECT_THROW(Analyzer{bad}, std::invalid_argument);
  bad = AnalyzerConfig{};
  bad.min_clusters = 1;
  EXPECT_THROW(Analyzer{bad}, std::invalid_argument);
  bad = AnalyzerConfig{};
  bad.max_clusters = 1;
  EXPECT_THROW(Analyzer{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace flare::core
