// Unit tests for the adaptive drift response (DESIGN.md §17): change-point
// confirmation with hysteresis, CUSUM slow-creep escalation, the cooldown
// window, the staleness band guard, and coherent-episode detection.
#include "core/drift_response.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/analyzer.hpp"
#include "core/drift.hpp"
#include "linalg/matrix.hpp"
#include "tests/util/matrix_matchers.hpp"

namespace flare::core {
namespace {

DriftResponseConfig test_config() {
  DriftResponseConfig config;
  config.enabled = true;
  config.confirm_batches = 2;
  config.cooldown_batches = 3;
  config.cusum_reference = 0.7;
  config.cusum_threshold = 2.5;
  return config;
}

/// A drift report whose statistic (max of the normalised distance and
/// coverage criteria) equals `statistic` exactly, with a verdict to match.
DriftReport report_with(double statistic, DriftVerdict verdict) {
  DriftReport drift;
  const DriftConfig defaults;
  drift.distance_ratio = statistic * defaults.refit_distance_ratio;
  drift.out_of_coverage_fraction = 0.0;
  drift.verdict = verdict;
  return drift;
}

TEST(DriftResponse, SingleBurstIsSuppressedSustainedShiftCommits) {
  DriftResponsePolicy policy(test_config(), DriftConfig{});

  // Batch 1: refit-worthy but unconfirmed — downgraded to reweight.
  DriftResponseReport r1;
  EXPECT_EQ(policy.resolve(DriftVerdict::kRefit,
                           report_with(1.2, DriftVerdict::kRefit), r1),
            DriftVerdict::kReweight);
  EXPECT_EQ(r1.regime, DriftRegime::kBurst);
  EXPECT_TRUE(r1.refit_suppressed);
  EXPECT_FALSE(r1.refit_committed);
  EXPECT_DOUBLE_EQ(r1.statistic, 1.2);

  // Batch 2: second consecutive refit-worthy batch — streak confirms.
  DriftResponseReport r2;
  EXPECT_EQ(policy.resolve(DriftVerdict::kRefit,
                           report_with(1.2, DriftVerdict::kRefit), r2),
            DriftVerdict::kRefit);
  EXPECT_EQ(r2.regime, DriftRegime::kShift);
  EXPECT_TRUE(r2.refit_committed);
}

TEST(DriftResponse, TransientBurstBetweenStableBatchesNeverRefits) {
  DriftResponseConfig config = test_config();
  config.cusum_threshold = 5.0;  // isolate the streak path
  DriftResponsePolicy policy(config, DriftConfig{});
  DriftResponseReport r;
  // stable, burst, stable, burst, ... — the streak never reaches 2.
  for (int i = 0; i < 6; ++i) {
    const bool burst = i % 2 == 1;
    const DriftVerdict proposed =
        burst ? DriftVerdict::kRefit : DriftVerdict::kValid;
    r = DriftResponseReport{};
    const DriftVerdict action =
        policy.resolve(proposed, report_with(burst ? 1.5 : 0.2, proposed), r);
    EXPECT_NE(action, DriftVerdict::kRefit) << "batch " << i;
    EXPECT_FALSE(r.refit_committed);
  }
}

TEST(DriftResponse, CusumEscalatesSlowCreepWithoutARefitWorthyBatch) {
  DriftResponsePolicy policy(test_config(), DriftConfig{});
  // statistic 0.95 each batch: never refit-worthy (< 1), but accumulates
  // 0.25 of CUSUM evidence per batch over the 0.7 reference.
  DriftVerdict action = DriftVerdict::kValid;
  DriftResponseReport r;
  int batches = 0;
  for (; batches < 30; ++batches) {
    r = DriftResponseReport{};
    action = policy.resolve(DriftVerdict::kValid,
                            report_with(0.95, DriftVerdict::kValid), r);
    if (action == DriftVerdict::kRefit) break;
  }
  EXPECT_EQ(action, DriftVerdict::kRefit);
  EXPECT_EQ(r.regime, DriftRegime::kShift);
  EXPECT_TRUE(r.refit_committed);
  // 0.25/batch needs 10 batches to reach 2.5.
  EXPECT_EQ(batches, 9);  // 0-indexed: the 10th batch crosses
}

TEST(DriftResponse, CooldownSuppressesRefitsThenReleases) {
  DriftResponsePolicy policy(test_config(), DriftConfig{});
  DriftResponseReport r;

  // Confirm and commit a refit (two refit-worthy batches), then note it.
  (void)policy.resolve(DriftVerdict::kRefit,
                       report_with(1.2, DriftVerdict::kRefit), r);
  r = DriftResponseReport{};
  ASSERT_EQ(policy.resolve(DriftVerdict::kRefit,
                           report_with(1.2, DriftVerdict::kRefit), r),
            DriftVerdict::kRefit);
  policy.note_refit();
  EXPECT_EQ(policy.batches_since_refit(), 0);

  // The next 3 batches sit inside the cooldown: refit proposals (and the
  // rebuilt CUSUM) are both suppressed, even with a confirmed streak.
  for (int i = 0; i < 3; ++i) {
    r = DriftResponseReport{};
    EXPECT_EQ(policy.resolve(DriftVerdict::kRefit,
                             report_with(1.3, DriftVerdict::kRefit), r),
              DriftVerdict::kReweight)
        << "cooldown batch " << i;
    EXPECT_TRUE(r.refit_suppressed);
  }

  // Cooldown over: the still-confirmed streak commits immediately.
  r = DriftResponseReport{};
  EXPECT_EQ(policy.resolve(DriftVerdict::kRefit,
                           report_with(1.3, DriftVerdict::kRefit), r),
            DriftVerdict::kRefit);
  EXPECT_TRUE(r.refit_committed);
}

TEST(DriftResponse, StalenessWideningGrowsIsCappedAndResetsOnRefit) {
  DriftResponseConfig config = test_config();
  config.staleness_budget_batches = 4.0;
  config.staleness_widening_pp = 0.5;
  config.staleness_widening_cap_pp = 2.0;
  config.cusum_reference = 10.0;  // keep CUSUM quiet
  DriftResponsePolicy policy(config, DriftConfig{});

  // Drift-rate proxy ≈ 1.0 → effective budget 4 batches. Within budget the
  // band stays unwidened; beyond it the widening grows by 0.5 pp per batch
  // of overrun until the 2 pp cap.
  DriftResponseReport r;
  std::vector<double> widening;
  for (int i = 0; i < 24; ++i) {
    r = DriftResponseReport{};
    (void)policy.resolve(DriftVerdict::kValid,
                         report_with(1.0, DriftVerdict::kValid), r);
    widening.push_back(policy.staleness_widening_pp());
  }
  EXPECT_DOUBLE_EQ(widening[0], 0.0);  // 1 batch old: well within budget
  EXPECT_DOUBLE_EQ(widening[3], 0.0);  // exactly at budget
  EXPECT_GT(widening[5], 0.0);
  EXPECT_GT(widening[7], widening[5]);  // monotone overrun growth
  EXPECT_DOUBLE_EQ(widening[15], 1.5);  // (16/4 − 1) · 0.5 pp
  EXPECT_DOUBLE_EQ(widening[23], 2.0);  // capped
  EXPECT_DOUBLE_EQ(r.staleness_widening_pp, 2.0);

  policy.note_refit();
  EXPECT_DOUBLE_EQ(policy.staleness_widening_pp(), 0.0);
  EXPECT_EQ(policy.batches_since_refit(), 0);
}

TEST(DriftResponse, FasterDriftTightensTheStalenessBudget) {
  DriftResponseConfig config = test_config();
  config.staleness_budget_batches = 12.0;
  config.cusum_reference = 100.0;
  DriftResponsePolicy slow(config, DriftConfig{});
  DriftResponsePolicy fast(config, DriftConfig{});
  DriftResponseReport r;
  for (int i = 0; i < 8; ++i) {
    (void)slow.resolve(DriftVerdict::kValid,
                       report_with(0.2, DriftVerdict::kValid), r);
    (void)fast.resolve(DriftVerdict::kValid,
                       report_with(3.0, DriftVerdict::kValid), r);
  }
  // Same batch-age, different drift rates: only the fast stream is stale.
  EXPECT_DOUBLE_EQ(slow.staleness_widening_pp(), 0.0);
  EXPECT_GT(fast.staleness_widening_pp(), 0.0);
}

// --- Episode detection -----------------------------------------------------

/// One fitted centroid at the origin; batch rows at the caller's positions.
AnalysisResult analysis_with_origin_centroid() {
  AnalysisResult analysis;
  analysis.clustering.centroids = testing::from_rows({{0.0, 0.0}});
  return analysis;
}

TEST(EpisodeDetection, CoherentClumpIsFencedAsOneEpisode) {
  const AnalysisResult analysis = analysis_with_origin_centroid();
  // Rows 0-3: a tight clump far from the fitted centroid. Row 4: covered.
  const linalg::Matrix projected = testing::from_rows({
      {10.0, 10.0}, {10.1, 9.9}, {9.9, 10.1}, {10.05, 10.0}, {0.1, 0.0}});
  DriftReport drift;
  drift.uncovered_rows = {3, 0, 2, 1};  // unordered on purpose

  DriftResponseConfig config = test_config();
  config.episode_min_rows = 4;
  const EpisodeFence fence =
      detect_anomalous_episode(analysis, projected, drift, config);
  ASSERT_TRUE(fence.detected());
  EXPECT_EQ(fence.rows, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_LT(fence.dispersion_ratio, 0.1);  // clump radius ≪ separation
}

TEST(EpisodeDetection, StraysAreTrimmedAndOnlyTheCoherentCoreIsFenced) {
  const AnalysisResult analysis = analysis_with_origin_centroid();
  // Rows 0-3: the episode clump. Rows 4-6: honest out-of-coverage drift
  // rows scattered elsewhere — they dilute the whole-set coherence but must
  // be trimmed off, not fenced.
  const linalg::Matrix projected = testing::from_rows({
      {10.0, 10.0}, {10.1, 9.9}, {9.9, 10.1}, {10.05, 10.0},
      {-6.0, 2.0}, {3.0, -7.0}, {-2.0, -2.0}});
  DriftReport drift;
  drift.uncovered_rows = {0, 1, 2, 3, 4, 5, 6};

  DriftResponseConfig config = test_config();
  config.episode_min_rows = 4;
  const EpisodeFence fence =
      detect_anomalous_episode(analysis, projected, drift, config);
  ASSERT_TRUE(fence.detected());
  EXPECT_EQ(fence.rows, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(EpisodeDetection, DispersedNoiseIsNotAnEpisode) {
  const AnalysisResult analysis = analysis_with_origin_centroid();
  // Four uncovered rows scattered in opposite directions: their mutual
  // dispersion matches their separation — i.i.d.-noise geometry.
  const linalg::Matrix projected = testing::from_rows({
      {10.0, 0.0}, {-10.0, 0.0}, {0.0, 10.0}, {0.0, -10.0}});
  DriftReport drift;
  drift.uncovered_rows = {0, 1, 2, 3};

  DriftResponseConfig config = test_config();
  config.episode_min_rows = 4;
  const EpisodeFence fence =
      detect_anomalous_episode(analysis, projected, drift, config);
  EXPECT_FALSE(fence.detected());
}

TEST(EpisodeDetection, RowsJustBeyondTheCoverageRadiusAreNotAnEpisode) {
  const AnalysisResult analysis = analysis_with_origin_centroid();
  // A tight clump just outside the coverage radius: honest drift evidence
  // every fresh batch carries, not an interference episode. The separation
  // prefilter (2.5× the radius by default) must reject it.
  const linalg::Matrix projected = testing::from_rows({
      {1.1, 0.0}, {1.15, 0.05}, {1.12, -0.04}, {1.08, 0.02}});
  DriftReport drift;
  drift.uncovered_rows = {0, 1, 2, 3};
  drift.coverage_radius_sq = {1.0};  // radius 1; rows sit at ≈ 1.1

  DriftResponseConfig config = test_config();
  config.episode_min_rows = 4;
  EXPECT_FALSE(
      detect_anomalous_episode(analysis, projected, drift, config).detected());

  // The same clump four radii out is unambiguous interference.
  const linalg::Matrix far = testing::from_rows({
      {4.1, 0.0}, {4.15, 0.05}, {4.12, -0.04}, {4.08, 0.02}});
  EXPECT_TRUE(detect_anomalous_episode(analysis, far, drift, config).detected());
}

TEST(EpisodeDetection, BelowMinimumRowsNeverFences) {
  const AnalysisResult analysis = analysis_with_origin_centroid();
  const linalg::Matrix projected =
      testing::from_rows({{10.0, 10.0}, {10.1, 9.9}, {9.9, 10.1}});
  DriftReport drift;
  drift.uncovered_rows = {0, 1, 2};
  DriftResponseConfig config = test_config();
  config.episode_min_rows = 4;
  EXPECT_FALSE(
      detect_anomalous_episode(analysis, projected, drift, config).detected());
}

TEST(DriftResponse, ConfigIsValidatedAtConstruction) {
  DriftResponseConfig bad = test_config();
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(DriftResponsePolicy(bad, DriftConfig{}), std::invalid_argument);
  bad = test_config();
  bad.confirm_batches = 0;
  EXPECT_THROW(DriftResponsePolicy(bad, DriftConfig{}), std::invalid_argument);
  bad = test_config();
  bad.staleness_budget_batches = 0.0;
  EXPECT_THROW(DriftResponsePolicy(bad, DriftConfig{}), std::invalid_argument);
}

}  // namespace
}  // namespace flare::core
