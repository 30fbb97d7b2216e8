#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include "tests/core/test_env.hpp"

namespace flare::core {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  dcsim::InterferenceModel model_;
  const dcsim::ScenarioSet& set_ = testing::small_scenario_set();
};

TEST_F(ProfilerTest, OneRowPerScenarioInOrder) {
  const Profiler profiler(model_);
  const metrics::MetricDatabase db = profiler.profile(set_, dcsim::default_machine());
  ASSERT_EQ(db.num_rows(), set_.size());
  for (std::size_t i = 0; i < set_.size(); ++i) {
    EXPECT_EQ(db.row(i).scenario_id, set_.scenarios[i].id);
    EXPECT_EQ(db.row(i).scenario_key, set_.scenarios[i].mix.key());
    EXPECT_DOUBLE_EQ(db.row(i).observation_weight,
                     set_.scenarios[i].observation_weight);
  }
}

TEST_F(ProfilerTest, DeterministicPerConfiguration) {
  const Profiler profiler(model_);
  const auto a = profiler.profile(set_, dcsim::default_machine());
  const auto b = profiler.profile(set_, dcsim::default_machine());
  for (std::size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row(i).values, b.row(i).values);
  }
}

TEST_F(ProfilerTest, MoreSamplesReduceMeasurementSpread) {
  ProfilerConfig one_sample;
  one_sample.samples_per_scenario = 1;
  ProfilerConfig many_samples;
  many_samples.samples_per_scenario = 16;

  // Spread: distance between two independent profiling runs of the same
  // scenario (different base streams).
  const auto spread = [&](ProfilerConfig cfg) {
    cfg.noise_stream = 111;
    const Profiler p1(model_, cfg);
    cfg.noise_stream = 222;
    const Profiler p2(model_, cfg);
    const auto& cat = metrics::MetricCatalog::standard();
    const auto r1 =
        testing::profile_one(p1, set_.scenarios[0], dcsim::default_machine(), cat);
    const auto r2 =
        testing::profile_one(p2, set_.scenarios[0], dcsim::default_machine(), cat);
    const std::size_t mips = *cat.index_of("Machine.MIPS");
    return std::abs(r1.values[mips] - r2.values[mips]) /
           std::max(r1.values[mips], 1e-9);
  };
  // Averaging 16 periodic samples must not be worse than a single read.
  EXPECT_LE(spread(many_samples), spread(one_sample) + 0.01);
}

TEST_F(ProfilerTest, ParallelProfilingIsBitIdenticalToSequential) {
  ProfilerConfig sequential;
  sequential.threads = 1;
  ProfilerConfig parallel;
  parallel.threads = 4;
  const Profiler p1(model_, sequential);
  const Profiler p2(model_, parallel);
  const auto a = p1.profile(set_, dcsim::default_machine());
  const auto b = p2.profile(set_, dcsim::default_machine());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row(i).values, b.row(i).values) << "row " << i;
    EXPECT_EQ(a.row(i).scenario_key, b.row(i).scenario_key);
  }
}

TEST_F(ProfilerTest, ValidatesConfig) {
  ProfilerConfig bad;
  bad.samples_per_scenario = 0;
  EXPECT_THROW(Profiler(model_, bad), std::invalid_argument);
  const Profiler profiler(model_);
  EXPECT_THROW(profiler.profile(dcsim::ScenarioSet{}, dcsim::default_machine()),
               std::invalid_argument);
}

TEST_F(ProfilerTest, MachineConfigChangesTheRows) {
  const Profiler profiler(model_);
  const auto& cat = metrics::MetricCatalog::standard();
  const auto def =
      testing::profile_one(profiler, set_.scenarios[0], dcsim::default_machine(), cat);
  dcsim::MachineConfig small_cache = dcsim::default_machine();
  small_cache.llc_mb_per_socket = 12.0;
  const auto feat =
      testing::profile_one(profiler, set_.scenarios[0], small_cache, cat);
  const std::size_t mpki = *cat.index_of("HP.LLC_MPKI");
  EXPECT_GT(feat.values[mpki], def.values[mpki]);
}

}  // namespace
}  // namespace flare::core
