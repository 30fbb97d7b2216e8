#include "core/tail_latency.hpp"

#include <gtest/gtest.h>

#include "tests/core/test_env.hpp"

namespace flare::core {
namespace {

dcsim::JobMix light_mix() {
  dcsim::JobMix mix;
  mix.add(dcsim::JobType::kDataCaching, 1);
  return mix;
}

dcsim::JobMix crowded_mix() {
  dcsim::JobMix mix;
  mix.add(dcsim::JobType::kDataCaching, 1);
  mix.add(dcsim::JobType::kLpMcf, 6);
  mix.add(dcsim::JobType::kGraphAnalytics, 4);
  return mix;
}

class TailLatencyTest : public ::testing::Test {
 protected:
  ImpactModel impact_{dcsim::default_machine()};
  TailLatencyModel tail_{impact_};
};

TEST_F(TailLatencyTest, LatencySensitivityFollowsServiceTimes) {
  // A job has latency semantics exactly when its base service time is
  // nonzero; the tail model reads that from the catalog.
  const dcsim::JobCatalog& catalog = impact_.model().catalog();
  EXPECT_GT(catalog.profile(dcsim::JobType::kDataCaching).base_service_ms, 0.0);
  EXPECT_GT(catalog.profile(dcsim::JobType::kWebSearch).base_service_ms, 0.0);
  EXPECT_EQ(catalog.profile(dcsim::JobType::kGraphAnalytics).base_service_ms, 0.0);
  EXPECT_EQ(catalog.profile(dcsim::JobType::kLpMcf).base_service_ms, 0.0);
}

TEST_F(TailLatencyTest, UncontendedServiceTimeNearNominal) {
  const TailLatencyResult r =
      tail_.evaluate(dcsim::JobType::kDataCaching, light_mix(),
                     dcsim::default_machine(), MeasurementContext::kTestbed);
  const double nominal = dcsim::default_job_catalog()
                             .profile(dcsim::JobType::kDataCaching)
                             .base_service_ms;
  EXPECT_NEAR(r.service_ms, nominal, nominal * 0.1);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.p99_ms, r.service_ms) << "queueing always adds something";
}

TEST_F(TailLatencyTest, ColocationInflatesTheTail) {
  const TailLatencyResult light =
      tail_.evaluate(dcsim::JobType::kDataCaching, light_mix(),
                     dcsim::default_machine(), MeasurementContext::kTestbed);
  const TailLatencyResult crowded =
      tail_.evaluate(dcsim::JobType::kDataCaching, crowded_mix(),
                     dcsim::default_machine(), MeasurementContext::kTestbed);
  EXPECT_GT(crowded.service_ms, light.service_ms);
  EXPECT_GT(crowded.utilization, light.utilization);
  // The tail amplifies more than the service time (queueing nonlinearity).
  EXPECT_GT(crowded.p99_ms / light.p99_ms, crowded.service_ms / light.service_ms);
}

TEST_F(TailLatencyTest, FeatureImpactOnTailExceedsThroughputImpactWhenHot) {
  const dcsim::JobMix mix = crowded_mix();
  const Feature& f = feature_dvfs_cap();
  const double mips_impact = impact_.job_impact_pct(
      dcsim::JobType::kDataCaching, mix, f, MeasurementContext::kTestbed);
  const double p99_impact = tail_.job_p99_impact_pct(
      dcsim::JobType::kDataCaching, mix, f, MeasurementContext::kTestbed);
  EXPECT_GT(p99_impact, mips_impact)
      << "the tail must amplify the throughput loss";
}

TEST_F(TailLatencyTest, SaturationIsReportedAndCapped) {
  // Force saturation: a config with a utilisation cap just above nominal.
  TailLatencyConfig config;
  config.utilization_cap = 0.80;  // DC nominal util is 0.75; any slowdown saturates
  const TailLatencyModel tight(impact_, config);
  const TailLatencyResult r =
      tight.evaluate(dcsim::JobType::kDataCaching, crowded_mix(),
                     dcsim::default_machine(), MeasurementContext::kTestbed);
  EXPECT_TRUE(r.saturated);
  EXPECT_LE(r.utilization, 0.80);
  const double impact = tight.job_p99_impact_pct(
      dcsim::JobType::kDataCaching, crowded_mix(), feature_smt_off(),
      MeasurementContext::kTestbed);
  EXPECT_LE(impact, 10000.0);
}

TEST_F(TailLatencyTest, ValidatesInput) {
  EXPECT_THROW((void)tail_.evaluate(dcsim::JobType::kGraphAnalytics, crowded_mix(),
                                    dcsim::default_machine(),
                                    MeasurementContext::kTestbed),
               std::invalid_argument);
  EXPECT_THROW((void)tail_.evaluate(dcsim::JobType::kWebSearch, light_mix(),
                                    dcsim::default_machine(),
                                    MeasurementContext::kTestbed),
               std::invalid_argument);
  TailLatencyConfig bad;
  bad.utilization_cap = 1.0;
  EXPECT_THROW(TailLatencyModel(impact_, bad), std::invalid_argument);
}

TEST_F(TailLatencyTest, DeterministicPerContext) {
  dcsim::JobMix mix = crowded_mix();
  mix.add(dcsim::JobType::kWebServing, 1);
  const double a = tail_.job_p99_impact_pct(dcsim::JobType::kWebServing, mix,
                                            feature_cache_sizing(),
                                            MeasurementContext::kTestbed);
  const double b = tail_.job_p99_impact_pct(dcsim::JobType::kWebServing, mix,
                                            feature_cache_sizing(),
                                            MeasurementContext::kTestbed);
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace flare::core
