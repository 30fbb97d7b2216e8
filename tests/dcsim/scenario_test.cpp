#include "dcsim/scenario.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace flare::dcsim {
namespace {

TEST(JobMix, StartsEmpty) {
  const JobMix mix;
  EXPECT_TRUE(mix.empty());
  EXPECT_EQ(mix.total_instances(), 0);
  EXPECT_EQ(mix.key(), "");
}

TEST(JobMix, AddAndRemove) {
  JobMix mix;
  mix.add(JobType::kDataCaching, 2);
  mix.add(JobType::kLpMcf);
  EXPECT_EQ(mix.count(JobType::kDataCaching), 2);
  EXPECT_EQ(mix.total_instances(), 3);
  mix.remove(JobType::kDataCaching);
  EXPECT_EQ(mix.count(JobType::kDataCaching), 1);
}

TEST(JobMix, RemoveBelowZeroThrows) {
  JobMix mix;
  mix.add(JobType::kDataServing);
  EXPECT_THROW(mix.remove(JobType::kDataServing, 2), std::invalid_argument);
  EXPECT_THROW(mix.remove(JobType::kWebSearch), std::invalid_argument);
}

TEST(JobMix, HpLpSplit) {
  JobMix mix;
  mix.add(JobType::kGraphAnalytics, 3);
  mix.add(JobType::kLpSjeng, 2);
  EXPECT_EQ(mix.hp_instances(), 3);
  EXPECT_EQ(mix.lp_instances(), 2);
  EXPECT_EQ(mix.vcpus(), 20);
  EXPECT_EQ(mix.hp_vcpus(), 12);
  EXPECT_EQ(mix.lp_vcpus(), 8);
}

TEST(JobMix, KeyIsCanonicalAndOrderIndependent) {
  JobMix a, b;
  a.add(JobType::kDataAnalytics, 2);
  a.add(JobType::kLpMcf, 1);
  b.add(JobType::kLpMcf, 1);
  b.add(JobType::kDataAnalytics, 2);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.key(), "DA:2,mcf:1");
}

TEST(JobMix, KeyRoundTrips) {
  JobMix mix;
  mix.add(JobType::kWebServing, 4);
  mix.add(JobType::kLpLibquantum, 2);
  mix.add(JobType::kMediaStreaming, 1);
  EXPECT_EQ(JobMix::from_key(mix.key()), mix);
}

TEST(JobMix, FromKeyEmptyString) {
  EXPECT_TRUE(JobMix::from_key("").empty());
  EXPECT_TRUE(JobMix::from_key("  ").empty());
}

TEST(JobMix, FromKeyRejectsMalformed) {
  EXPECT_THROW((void)JobMix::from_key("DA"), ParseError);
  EXPECT_THROW((void)JobMix::from_key("DA:x"), ParseError);
  EXPECT_THROW((void)JobMix::from_key("XX:1"), ParseError);
  EXPECT_THROW((void)JobMix::from_key("DA:0"), ParseError);
  EXPECT_THROW((void)JobMix::from_key("DA:-1"), ParseError);
  EXPECT_THROW((void)JobMix::from_key("DA:1:2"), ParseError);
}

TEST(ScenarioSet, WeightsNormalise) {
  ScenarioSet set;
  for (int i = 0; i < 4; ++i) {
    ColocationScenario s;
    s.id = static_cast<std::size_t>(i);
    s.mix.add(JobType::kDataCaching);
    s.observation_weight = static_cast<double>(i + 1);
    set.scenarios.push_back(s);
  }
  EXPECT_DOUBLE_EQ(set.total_weight(), 10.0);
  const auto w = set.normalized_weights();
  EXPECT_DOUBLE_EQ(w[0], 0.1);
  EXPECT_DOUBLE_EQ(w[3], 0.4);
  double sum = 0.0;
  for (const double v : w) sum += v;
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(ScenarioSet, NormalizeRejectsZeroTotal) {
  ScenarioSet set;
  ColocationScenario s;
  s.observation_weight = 0.0;
  set.scenarios.push_back(s);
  EXPECT_THROW(set.normalized_weights(), std::invalid_argument);
}

}  // namespace
}  // namespace flare::dcsim
