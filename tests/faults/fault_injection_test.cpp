// Fault-injection suite (ctest label `faults`): the ISSUE's three properties —
// (a) faults-off is bit-identical to the golden capture, (b) modest fault
// rates leave the clustering structurally intact, (c) quarantined weight mass
// is conserved in the ledger — plus deterministic unit coverage of the
// CounterFaultModel and the hardened profiler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "dcsim/counters.hpp"
#include "dcsim/submission.hpp"
#include "tests/core/test_env.hpp"
#include "tests/util/property.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace flare::core {
namespace {

dcsim::ScenarioSet scenario_set_of(std::size_t n, std::uint64_t seed) {
  dcsim::SubmissionConfig config;
  config.target_distinct_scenarios = n;
  config.seed = seed;
  return dcsim::generate_scenario_set(config, dcsim::default_machine());
}

FlareConfig faulty_config(double rate, std::uint64_t fault_seed) {
  FlareConfig config = testing::small_flare_config();
  config.profiler.faults = dcsim::FaultOptions::uniform(rate, fault_seed);
  config.profiler.max_retries = 2;
  config.profiler.sample_quorum = 2;
  return config;
}

// --- CounterFaultModel -----------------------------------------------------

TEST(CounterFaultModel, InactiveByDefaultAndWhenAllRatesZero) {
  EXPECT_FALSE(dcsim::CounterFaultModel().active());
  dcsim::FaultOptions enabled_but_zero;
  enabled_but_zero.enabled = true;
  EXPECT_FALSE(dcsim::CounterFaultModel(enabled_but_zero).active());
  EXPECT_TRUE(
      dcsim::CounterFaultModel(dcsim::FaultOptions::uniform(0.1)).active());
  EXPECT_FALSE(
      dcsim::CounterFaultModel(dcsim::FaultOptions::uniform(0.0)).active());
}

TEST(CounterFaultModel, RejectsInvalidRates) {
  EXPECT_THROW((void)dcsim::FaultOptions::uniform(-0.1), std::invalid_argument);
  EXPECT_THROW((void)dcsim::FaultOptions::uniform(1.5), std::invalid_argument);
  dcsim::FaultOptions overlapping;
  overlapping.enabled = true;
  overlapping.nan_rate = 0.5;
  overlapping.stuck_rate = 0.4;
  overlapping.multiplex_rate = 0.3;  // classes overlap: 1.2 > 1
  EXPECT_THROW(dcsim::CounterFaultModel{overlapping}, std::invalid_argument);
}

TEST(CounterFaultModel, DecisionsAreDeterministicPerSeed) {
  const dcsim::FaultOptions options = dcsim::FaultOptions::uniform(0.3, 77);
  const dcsim::CounterFaultModel a(options);
  const dcsim::CounterFaultModel b(options);
  const std::vector<double> base = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto bit_equal = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  for (int s = 0; s < 20; ++s) {
    EXPECT_EQ(a.drop_sample("scenario-x", s, 0), b.drop_sample("scenario-x", s, 0));
    std::vector<double> va = base, vb = base;
    a.corrupt(va, base, "scenario-x", s, 0);
    b.corrupt(vb, base, "scenario-x", s, 0);
    EXPECT_TRUE(bit_equal(va, vb));  // bitwise: NaNs land in the same cells
  }
  EXPECT_EQ(a.lose_row("scenario-x"), b.lose_row("scenario-x"));

  // Retries draw from a fresh substream: at a 30% corruption rate, twenty
  // (sample, attempt) pairs cannot all corrupt identically.
  bool any_difference = false;
  for (int s = 0; s < 20 && !any_difference; ++s) {
    std::vector<double> first = base, second = base;
    a.corrupt(first, base, "scenario-x", s, 0);
    a.corrupt(second, base, "scenario-x", s, 1);
    for (std::size_t i = 0; i < base.size(); ++i) {
      const bool eq = first[i] == second[i] ||
                      (std::isnan(first[i]) && std::isnan(second[i]));
      any_difference = any_difference || !eq;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(CounterFaultModel, ExtremeRatesProduceTheirFaultClass) {
  const std::vector<double> last = {10.0, 20.0, 30.0};

  dcsim::FaultOptions all_nan;
  all_nan.enabled = true;
  all_nan.nan_rate = 1.0;
  std::vector<double> sample = {1.0, 2.0, 3.0};
  dcsim::CounterFaultModel(all_nan).corrupt(sample, last, "k", 0, 0);
  for (const double v : sample) EXPECT_FALSE(std::isfinite(v));

  dcsim::FaultOptions all_stuck;
  all_stuck.enabled = true;
  all_stuck.stuck_rate = 1.0;
  sample = {1.0, 2.0, 3.0};
  dcsim::CounterFaultModel(all_stuck).corrupt(sample, last, "k", 0, 0);
  EXPECT_EQ(sample, last);

  // Stuck-at needs history: the first sample has none and passes through.
  sample = {1.0, 2.0, 3.0};
  dcsim::CounterFaultModel(all_stuck).corrupt(sample, {}, "k", 0, 0);
  EXPECT_EQ(sample, (std::vector<double>{1.0, 2.0, 3.0}));

  dcsim::FaultOptions all_scaled;
  all_scaled.enabled = true;
  all_scaled.multiplex_rate = 1.0;
  sample = {1.0, 2.0, 3.0};
  dcsim::CounterFaultModel(all_scaled).corrupt(sample, last, "k", 0, 0);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    EXPECT_TRUE(std::isfinite(sample[i]));
    EXPECT_GT(sample[i], 0.0);
    EXPECT_NE(sample[i], static_cast<double>(i + 1));  // scaled, not identity
  }
}

// --- Profiler hardening ----------------------------------------------------

TEST(ProfilerFaults, RowLossDropsEverySampleAndFlagsTheRow) {
  FlareConfig config = testing::small_flare_config();
  config.profiler.faults.enabled = true;
  config.profiler.faults.row_loss_rate = 1.0;
  const dcsim::ScenarioSet set = scenario_set_of(10, 7);
  const dcsim::InterferenceModel model(dcsim::default_job_catalog(),
                                       config.model);
  const Profiler profiler(model, config.profiler);
  const ProfileReport report =
      profiler.profile_with_health(set, config.machine);
  ASSERT_EQ(report.health.size(), set.size());
  for (const RowHealth& h : report.health) {
    EXPECT_TRUE(h.row_lost);
    EXPECT_EQ(h.valid_samples, 0);
    EXPECT_EQ(h.dropped_samples, config.profiler.samples_per_scenario);
    EXPECT_TRUE(h.below_quorum(1));
    EXPECT_EQ(h.imputed_count(),
              static_cast<int>(report.database.num_metrics()));
  }
  for (const metrics::MetricRow& row : report.database.rows()) {
    for (const double v : row.values) EXPECT_TRUE(std::isnan(v));
  }
}

TEST(ProfilerFaults, RetriesRecoverDroppedSamples) {
  FlareConfig config = testing::small_flare_config();
  config.profiler.faults.enabled = true;
  config.profiler.faults.sample_drop_rate = 0.5;
  config.profiler.max_retries = 6;  // P(7 consecutive drops) ≈ 0.8%
  const dcsim::ScenarioSet set = scenario_set_of(20, 11);
  const dcsim::InterferenceModel model(dcsim::default_job_catalog(),
                                       config.model);
  const Profiler profiler(model, config.profiler);
  const ProfileReport report =
      profiler.profile_with_health(set, config.machine);
  EXPECT_GT(report.total_retried_samples(), 0);
  int valid = 0, total = 0;
  for (const RowHealth& h : report.health) {
    valid += h.valid_samples;
    total += config.profiler.samples_per_scenario;
    EXPECT_FALSE(h.row_lost);
  }
  // Retries rescue the vast majority of dropped samples.
  EXPECT_GT(valid, total * 9 / 10);
}

TEST(ProfilerFaults, QuorumFlagsRowsWithTooFewSurvivingSamples) {
  FlareConfig config = testing::small_flare_config();
  config.profiler.faults.enabled = true;
  config.profiler.faults.sample_drop_rate = 0.95;
  config.profiler.max_retries = 0;
  config.profiler.sample_quorum = config.profiler.samples_per_scenario;
  const dcsim::ScenarioSet set = scenario_set_of(15, 13);
  const dcsim::InterferenceModel model(dcsim::default_job_catalog(),
                                       config.model);
  const Profiler profiler(model, config.profiler);
  const ProfileReport report =
      profiler.profile_with_health(set, config.machine);
  // At a 95% drop rate with no retries, some row certainly lost a sample.
  EXPECT_GT(report.rows_below_quorum(config.profiler.sample_quorum), 0);
}

TEST(ProfilerFaults, CleanPathMatchesLegacyProfileBitForBit) {
  FlareConfig config = testing::small_flare_config();
  const dcsim::ScenarioSet set = scenario_set_of(25, 17);
  const dcsim::InterferenceModel model(dcsim::default_job_catalog(),
                                       config.model);
  ProfilerConfig hardened = config.profiler;
  hardened.sample_quorum = 2;
  hardened.max_retries = 5;  // knobs set, faults off: must change nothing
  const metrics::MetricDatabase legacy =
      Profiler(model, config.profiler).profile(set, config.machine);
  const ProfileReport report =
      Profiler(model, hardened).profile_with_health(set, config.machine);
  ASSERT_EQ(report.database.num_rows(), legacy.num_rows());
  for (std::size_t r = 0; r < legacy.num_rows(); ++r) {
    EXPECT_EQ(report.database.row(r).values, legacy.row(r).values);
    EXPECT_TRUE(report.health[r].clean());
    EXPECT_EQ(report.health[r].valid_samples,
              config.profiler.samples_per_scenario);
  }
}

// --- Property (a): faults-off is bit-identical to the golden capture -------

std::uint64_t analysis_hash(const AnalysisResult& a) {
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
  return h;
}

TEST(FaultProperties, FaultsOffReproducesTheGoldenHash) {
  // Same setup as AnalyzerGolden, but with every fault-tolerance knob set to
  // a non-default value while injection itself stays off: retry budget,
  // quorum and validation must not perturb a single bit of a clean fit.
  dcsim::SubmissionConfig sub;
  sub.target_distinct_scenarios = 150;
  const dcsim::ScenarioSet set =
      dcsim::generate_scenario_set(sub, dcsim::default_machine());
  FlareConfig config;
  config.analyzer.fixed_clusters = 8;
  config.analyzer.compute_quality_curve = false;
  config.profiler.max_retries = 7;
  config.profiler.sample_quorum = 3;
  FlarePipeline pipeline(config);
  pipeline.fit(set);
  EXPECT_EQ(analysis_hash(pipeline.analysis()), 0x8d2548b8333dcaefull);
  EXPECT_TRUE(pipeline.analysis().quarantine.quarantined_rows.empty());
  for (const bool q : pipeline.quarantined()) EXPECT_FALSE(q);
}

// --- Property (b): ≤10% faults keep the clustering structurally intact -----

TEST(FaultProperties, ModestFaultRatesPreserveClusterCoMembership) {
  FLARE_CHECK_PROPERTY(3, 0xFA177B17Dull, [](stats::Rng& rng, double scale) {
    // The floor keeps healthy rows above the refined column count (~85 of
    // the standard catalog) even after quarantine — below it PCA is
    // legitimately rank-deficient, which is not what this property probes.
    const std::size_t n =
        std::max<std::size_t>(150, static_cast<std::size_t>(180 * scale));
    const dcsim::ScenarioSet set =
        scenario_set_of(n, 0x5E7 + static_cast<std::uint64_t>(n));
    const double rate = 0.01 + 0.09 * rng.uniform();  // ≤ 10%
    const std::uint64_t fault_seed = rng.next();

    FlareConfig clean_config = testing::small_flare_config();
    FlarePipeline clean(clean_config);
    clean.fit(set);

    FlarePipeline faulty(faulty_config(rate, fault_seed));
    faulty.fit(set);

    // Co-membership is judged in the clean fit's fixed frame: each degraded
    // raw row is projected through the clean refine→standardize→PCA→whiten
    // stages and assigned to the nearest clean centroid. A healthy row must
    // land in the same cluster as its clean profile — that is the graceful
    // degradation the paper's workflow needs (a re-FIT comparison would
    // instead measure K-means basin stability on a population with no
    // strong cluster structure, which is chance-level even fault-free).
    const AnalysisResult& frame = clean.analysis();
    const linalg::Matrix projected =
        stages::project_rows(frame, faulty.database().to_matrix());
    const stages::NearestAssignment nearest =
        stages::assign_to_nearest(frame.clustering, projected);
    std::size_t healthy = 0;
    std::size_t same = 0;
    for (std::size_t r = 0; r < set.size(); ++r) {
      if (faulty.quarantined()[r]) continue;
      ++healthy;
      if (nearest.cluster[r] == frame.clustering.assignment[r]) ++same;
    }
    ASSERT_GT(healthy, set.size() / 2);
    const double agreement =
        static_cast<double>(same) / static_cast<double>(healthy);
    EXPECT_GE(agreement, 0.8)
        << "fault rate " << rate << " broke co-membership";
  });
}

// --- Property (c): quarantined weight mass is conserved in the ledger ------

TEST(FaultProperties, QuarantinedWeightMassIsConservedInTheLedger) {
  FLARE_CHECK_PROPERTY(4, 0x1ED6E2ull, [](stats::Rng& rng, double scale) {
    // Same floor rationale as the co-membership property: keep the healthy
    // population above the refined column count.
    const std::size_t n =
        std::max<std::size_t>(150, static_cast<std::size_t>(200 * scale));
    const dcsim::ScenarioSet set =
        scenario_set_of(n, 0xA11 + static_cast<std::uint64_t>(n));

    FlareConfig config = testing::small_flare_config();
    config.profiler.faults = dcsim::FaultOptions::uniform(
        0.02 + 0.08 * rng.uniform(), rng.next());
    // Row loss is the quarantine workhorse: crank it so some rows certainly
    // fall below quorum.
    config.profiler.faults.row_loss_rate = 0.1 + 0.15 * rng.uniform();
    FlarePipeline pipeline(config);
    pipeline.fit(set);

    const QuarantineLedger& ledger = pipeline.analysis().quarantine;
    double total = 0.0;
    for (const dcsim::ColocationScenario& s : set.scenarios) {
      total += s.observation_weight;
    }
    EXPECT_NEAR(ledger.total_weight, total, 1e-9 * std::max(1.0, total));

    // The ledger's quarantined mass is exactly the mass of the quarantined
    // rows — nothing lost, nothing double-counted.
    double quarantined = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < set.size(); ++r) {
      if (pipeline.quarantined()[r]) {
        quarantined += set.scenarios[r].observation_weight;
        ++count;
      }
    }
    EXPECT_EQ(ledger.quarantined_rows.size(), count);
    EXPECT_NEAR(ledger.quarantined_weight, quarantined,
                1e-9 * std::max(1.0, quarantined));
    for (const std::size_t r : ledger.quarantined_rows) {
      EXPECT_TRUE(pipeline.quarantined()[r]);
    }
    // Healthy mass + quarantined mass = total mass.
    EXPECT_LE(ledger.quarantined_fraction(), 1.0);
    EXPECT_GE(ledger.quarantined_fraction(), 0.0);
  });
}

// --- Acceptance: seeded 10% faults, fit + 8 ingest batches, no throw -------

TEST(FaultAcceptance, TenPercentFaultsFitAndEightBatchIngestComplete) {
  FlareConfig config = faulty_config(0.1, 42);
  FlarePipeline pipeline(config);
  pipeline.fit(scenario_set_of(150, 1));

  std::size_t expected_rows = pipeline.scenario_set().size();
  for (int b = 0; b < 8; ++b) {
    const dcsim::ScenarioSet batch =
        scenario_set_of(15, 1000 + static_cast<std::uint64_t>(b));
    const IngestReport report = pipeline.ingest(batch);
    expected_rows += batch.size();
    EXPECT_EQ(pipeline.scenario_set().size(), expected_rows);
    EXPECT_EQ(pipeline.quarantined().size(), expected_rows);
    // Telemetry is internally consistent.
    if (report.rows_quarantined > 0 || report.imputed_cells > 0) {
      EXPECT_TRUE(report.degraded);
    }
    EXPECT_GE(report.quarantined_weight_fraction, 0.0);
    EXPECT_LE(report.quarantined_weight_fraction, 1.0);
  }
  // The grown, degraded population still evaluates features.
  const FeatureEstimate est = pipeline.evaluate(feature_dvfs_cap());
  EXPECT_TRUE(std::isfinite(est.impact_pct));
  const QuarantineLedger& ledger = pipeline.analysis().quarantine;
  EXPECT_EQ(ledger.quarantined_rows.size(),
            [&] {
              std::size_t n = 0;
              for (const bool q : pipeline.quarantined()) n += q ? 1 : 0;
              return n;
            }());
  EXPECT_GT(ledger.total_weight, 0.0);
}

TEST(FaultAcceptance, FullQuarantineThrowsQuarantineError) {
  FlareConfig config = testing::small_flare_config();
  config.profiler.faults.enabled = true;
  config.profiler.faults.row_loss_rate = 1.0;  // nobody reports
  FlarePipeline pipeline(config);
  EXPECT_THROW(pipeline.fit(scenario_set_of(40, 5)), QuarantineError);
}

}  // namespace
}  // namespace flare::core
