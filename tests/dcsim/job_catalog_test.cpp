#include "dcsim/job_catalog.hpp"

#include <gtest/gtest.h>

#include "dcsim/job_types.hpp"
#include "util/error.hpp"

namespace flare::dcsim {
namespace {

TEST(JobTypes, CountsAndOrder) {
  EXPECT_EQ(all_job_types().size(), kNumJobTypes);
  EXPECT_EQ(hp_job_types().size(), kNumHpJobTypes);
  // HP types come first and are flagged high priority.
  for (const JobType t : hp_job_types()) EXPECT_TRUE(is_high_priority(t));
  EXPECT_FALSE(is_high_priority(JobType::kLpMcf));
}

TEST(JobTypes, CodesRoundTrip) {
  for (const JobType t : all_job_types()) {
    EXPECT_EQ(job_type_from_code(job_code(t)), t);
  }
}

TEST(JobTypes, UnknownCodeThrows) {
  EXPECT_THROW((void)job_type_from_code("nope"), ParseError);
  EXPECT_THROW((void)job_type_from_code(""), ParseError);
}

TEST(JobTypes, PaperCodes) {
  EXPECT_EQ(job_code(JobType::kDataAnalytics), "DA");
  EXPECT_EQ(job_code(JobType::kWebSearch), "WSC");
  EXPECT_EQ(job_code(JobType::kLpMcf), "mcf");
  EXPECT_EQ(job_name(JobType::kLpLibquantum), "462.libquantum");
}

TEST(JobCatalog, EveryProfileIsConsistent) {
  const JobCatalog& catalog = default_job_catalog();
  for (const JobType t : all_job_types()) {
    const JobProfile& p = catalog.profile(t);
    EXPECT_EQ(p.type, t);
    EXPECT_EQ(p.high_priority, is_high_priority(t));
    EXPECT_EQ(p.vcpus, 4) << "paper: every instance is a 4-vCPU container";
    EXPECT_GT(p.dram_gb, 0.0);
    EXPECT_GT(p.cpu_utilization, 0.0);
    EXPECT_LE(p.cpu_utilization, 1.0);
    EXPECT_GT(p.base_cpi, 0.0);
    EXPECT_GT(p.llc_apki, 0.0);
    EXPECT_GT(p.working_set_mb, 0.0);
    EXPECT_GE(p.min_miss_ratio, 0.0);
    EXPECT_LT(p.min_miss_ratio, 1.0);
    EXPECT_GT(p.mlp, 0.0);
    EXPECT_GT(p.smt_yield, 0.5);
    EXPECT_LE(p.smt_yield, 1.0);
    EXPECT_GE(p.frontend_bound + p.bad_speculation, 0.0);
    EXPECT_LT(p.frontend_bound + p.bad_speculation, 1.0);
    EXPECT_FALSE(p.configuration.empty()) << "Table 3 blurb missing";
  }
}

TEST(JobCatalog, LpJobsPinTheirCores) {
  const JobCatalog& catalog = default_job_catalog();
  for (const JobType t : all_job_types()) {
    if (is_high_priority(t)) continue;
    EXPECT_DOUBLE_EQ(catalog.profile(t).cpu_utilization, 1.0);
    EXPECT_DOUBLE_EQ(catalog.profile(t).network_mbps, 0.0)
        << "SPEC batch jobs move no service traffic";
  }
}

TEST(JobCatalog, CalibrationOrderings) {
  // The qualitative characterisations the interference model relies on.
  const JobCatalog& c = default_job_catalog();
  // Graph analytics is the hungriest HP cache consumer.
  EXPECT_GT(c.profile(JobType::kGraphAnalytics).llc_apki,
            c.profile(JobType::kWebServing).llc_apki);
  // Web serving/search are the frontend-bound services.
  EXPECT_GT(c.profile(JobType::kWebServing).frontend_bound,
            c.profile(JobType::kGraphAnalytics).frontend_bound);
  EXPECT_GT(c.profile(JobType::kWebSearch).l1i_mpki,
            c.profile(JobType::kInMemoryAnalytics).l1i_mpki);
  // libquantum streams: the highest miss floor in the population.
  for (const JobType t : all_job_types()) {
    if (t == JobType::kLpLibquantum) continue;
    EXPECT_GE(c.profile(JobType::kLpLibquantum).min_miss_ratio,
              c.profile(t).min_miss_ratio);
  }
  // mcf has the highest LLC APKI.
  for (const JobType t : all_job_types()) {
    EXPECT_GE(c.profile(JobType::kLpMcf).llc_apki, c.profile(t).llc_apki);
  }
  // Media streaming dominates network traffic.
  for (const JobType t : all_job_types()) {
    EXPECT_GE(c.profile(JobType::kMediaStreaming).network_mbps,
              c.profile(t).network_mbps);
  }
}

TEST(JobCatalog, SetProfileOverrides) {
  JobCatalog catalog;
  JobProfile p = catalog.profile(JobType::kDataCaching);
  p.llc_apki = 99.0;
  catalog.set_profile(p);
  EXPECT_DOUBLE_EQ(catalog.profile(JobType::kDataCaching).llc_apki, 99.0);
  // The shared default catalog is unaffected.
  EXPECT_NE(default_job_catalog().profile(JobType::kDataCaching).llc_apki, 99.0);
}

TEST(MissRatioCurve, MonotoneNonIncreasingInCache) {
  const JobProfile& p = default_job_catalog().profile(JobType::kGraphAnalytics);
  double prev = 1.1;
  for (const double c : {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const double r = p.miss_ratio(c);
    EXPECT_LE(r, prev);
    EXPECT_GE(r, p.min_miss_ratio - 1e-12);
    EXPECT_LE(r, 1.0);
    prev = r;
  }
}

TEST(MissRatioCurve, ZeroCacheMissesEverything) {
  const JobProfile& p = default_job_catalog().profile(JobType::kDataAnalytics);
  EXPECT_NEAR(p.miss_ratio(0.0), 1.0, 1e-12);
}

TEST(MissRatioCurve, NegativeCacheClampedToZero) {
  const JobProfile& p = default_job_catalog().profile(JobType::kDataAnalytics);
  EXPECT_DOUBLE_EQ(p.miss_ratio(-5.0), p.miss_ratio(0.0));
}

class MissCurveSweep : public ::testing::TestWithParam<JobType> {};

TEST_P(MissCurveSweep, CurveIsBoundedAndMonotoneForEveryJob) {
  const JobProfile& p = default_job_catalog().profile(GetParam());
  double prev = 1.0 + 1e-12;
  for (double c = 0.0; c <= 80.0; c += 0.5) {
    const double r = p.miss_ratio(c);
    EXPECT_LE(r, prev + 1e-12);
    EXPECT_GE(r, 0.0);
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllJobs, MissCurveSweep,
                         ::testing::ValuesIn(all_job_types()),
                         [](const ::testing::TestParamInfo<JobType>& info) {
                           return std::string(job_code(info.param));
                         });

}  // namespace
}  // namespace flare::dcsim
