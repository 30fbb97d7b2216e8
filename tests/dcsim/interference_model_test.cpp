#include "dcsim/interference_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace flare::dcsim {
namespace {

ModelOptions noiseless() {
  ModelOptions o;
  o.enable_noise = false;
  return o;
}

JobMix mix_of(std::initializer_list<std::pair<JobType, int>> items) {
  JobMix mix;
  for (const auto& [type, count] : items) mix.add(type, count);
  return mix;
}

class InterferenceModelTest : public ::testing::Test {
 protected:
  MachineConfig machine_ = default_machine();
  InterferenceModel model_{default_job_catalog(), noiseless()};
};

TEST_F(InterferenceModelTest, RejectsEmptyAndOversizedMixes) {
  EXPECT_THROW(model_.evaluate(machine_, JobMix{}), std::invalid_argument);
  JobMix too_big;
  too_big.add(JobType::kLpSjeng, 13);  // 52 vCPUs > 48
  EXPECT_THROW(model_.evaluate(machine_, too_big), std::invalid_argument);
}

TEST_F(InterferenceModelTest, SoloJobGetsItsFullWorkingSetOrMachineCache) {
  const auto perf =
      model_.evaluate(machine_, mix_of({{JobType::kGraphAnalytics, 1}}));
  const auto& job = perf.job(JobType::kGraphAnalytics);
  const double expected = std::min(
      default_job_catalog().profile(JobType::kGraphAnalytics).working_set_mb,
      machine_.total_llc_mb());
  EXPECT_NEAR(job.cache_mb_per_instance, expected, 1e-9);
  EXPECT_DOUBLE_EQ(job.core_speed_factor, 1.0);  // no contention
}

TEST_F(InterferenceModelTest, ColocationNeverSpeedsAJobUp) {
  const double solo = model_.evaluate(machine_, mix_of({{JobType::kWebSearch, 1}}))
                          .job(JobType::kWebSearch)
                          .mips_per_instance;
  const double crowded =
      model_
          .evaluate(machine_, mix_of({{JobType::kWebSearch, 1},
                                      {JobType::kLpMcf, 6},
                                      {JobType::kGraphAnalytics, 4}}))
          .job(JobType::kWebSearch)
          .mips_per_instance;
  EXPECT_LT(crowded, solo);
}

TEST_F(InterferenceModelTest, CacheHungryNeighboursShrinkAllocation) {
  const auto alone = model_.evaluate(machine_, mix_of({{JobType::kWebSearch, 2}}));
  const auto crowded = model_.evaluate(
      machine_, mix_of({{JobType::kWebSearch, 2}, {JobType::kLpMcf, 8}}));
  EXPECT_LT(crowded.job(JobType::kWebSearch).cache_mb_per_instance,
            alone.job(JobType::kWebSearch).cache_mb_per_instance);
  EXPECT_GT(crowded.job(JobType::kWebSearch).llc_mpki,
            alone.job(JobType::kWebSearch).llc_mpki);
}

TEST_F(InterferenceModelTest, CacheAllocationsNeverExceedCapacity) {
  const auto perf = model_.evaluate(
      machine_, mix_of({{JobType::kGraphAnalytics, 4},
                        {JobType::kLpMcf, 4},
                        {JobType::kDataServing, 4}}));
  double total = 0.0;
  for (const auto& j : perf.jobs) total += j.cache_mb_per_instance * j.instances;
  EXPECT_LE(total, machine_.total_llc_mb() + 1e-9);
}

TEST_F(InterferenceModelTest, SmallerLlcReducesMips) {
  MachineConfig small_cache = machine_;
  small_cache.llc_mb_per_socket = 12.0;
  const JobMix mix = mix_of({{JobType::kGraphAnalytics, 4}, {JobType::kLpMcf, 4}});
  EXPECT_LT(model_.evaluate(small_cache, mix).hp_mips,
            model_.evaluate(machine_, mix).hp_mips);
}

TEST_F(InterferenceModelTest, LowerFrequencyReducesMips) {
  MachineConfig slow = machine_;
  slow.max_freq_ghz = 1.8;
  const JobMix mix = mix_of({{JobType::kInMemoryAnalytics, 4}});
  EXPECT_LT(model_.evaluate(slow, mix).hp_mips, model_.evaluate(machine_, mix).hp_mips);
}

TEST_F(InterferenceModelTest, MemoryBoundJobsAreLessFrequencySensitive) {
  MachineConfig slow = machine_;
  slow.max_freq_ghz = 1.8;
  const auto sensitivity = [&](JobType t) {
    const JobMix mix = mix_of({{t, 1}});
    const double fast = model_.evaluate(machine_, mix).total_mips;
    const double slowed = model_.evaluate(slow, mix).total_mips;
    return (fast - slowed) / fast;
  };
  // sjeng (compute-bound) hurts more than mcf (memory-bound) — the first-order
  // DVFS behaviour Feature 2 depends on.
  EXPECT_GT(sensitivity(JobType::kLpSjeng), sensitivity(JobType::kLpMcf));
}

TEST_F(InterferenceModelTest, SmtOffHurtsLoadedMachines) {
  MachineConfig no_smt = machine_;
  no_smt.smt_enabled = false;
  const JobMix loaded = mix_of({{JobType::kGraphAnalytics, 6},
                                {JobType::kLpSjeng, 5}});  // 44 busy vCPUs
  EXPECT_LT(model_.evaluate(no_smt, loaded).total_mips,
            model_.evaluate(machine_, loaded).total_mips);
}

TEST_F(InterferenceModelTest, SmtOffIsFreeOnNearlyIdleMachines) {
  MachineConfig no_smt = machine_;
  no_smt.smt_enabled = false;
  const JobMix idle = mix_of({{JobType::kMediaStreaming, 1}});  // ~2.4 busy
  const double with_smt = model_.evaluate(machine_, idle).total_mips;
  const double without = model_.evaluate(no_smt, idle).total_mips;
  EXPECT_NEAR(without / with_smt, 1.0, 0.02);
}

TEST_F(InterferenceModelTest, SmtSharingUsesPerJobYield) {
  // Saturated homogeneous machine: per-thread speed == smt_yield blend.
  const JobMix full = mix_of({{JobType::kLpSjeng, 12}});  // 48 busy threads
  const auto perf = model_.evaluate(machine_, full);
  const double yield = default_job_catalog().profile(JobType::kLpSjeng).smt_yield;
  EXPECT_NEAR(perf.job(JobType::kLpSjeng).core_speed_factor, yield, 1e-9);
}

TEST_F(InterferenceModelTest, BandwidthSaturationRaisesLatencyMultiplier) {
  const auto light = model_.evaluate(machine_, mix_of({{JobType::kWebServing, 1}}));
  const auto heavy = model_.evaluate(
      machine_, mix_of({{JobType::kLpLibquantum, 8}, {JobType::kLpMcf, 4}}));
  EXPECT_GT(heavy.mem_bw_utilization, light.mem_bw_utilization);
  EXPECT_GT(heavy.mem_latency_multiplier, light.mem_latency_multiplier);
  EXPECT_GE(light.mem_latency_multiplier, 1.0);
  EXPECT_LE(heavy.mem_latency_multiplier,
            model_.options().max_latency_multiplier + 1e-12);
}

TEST_F(InterferenceModelTest, NetworkSaturationThrottlesStreamingJobs) {
  // 6 MS instances demand 12 Gb/s on a 10 Gb/s NIC.
  const auto sat = model_.evaluate(machine_, mix_of({{JobType::kMediaStreaming, 6}}));
  const auto ok = model_.evaluate(machine_, mix_of({{JobType::kMediaStreaming, 2}}));
  EXPECT_GT(sat.network_utilization, 1.0);
  EXPECT_LT(sat.job(JobType::kMediaStreaming).mips_per_instance,
            ok.job(JobType::kMediaStreaming).mips_per_instance);
  EXPECT_LE(sat.network_mbps, machine_.network_gbps * 1000.0 + 1e-6);
}

TEST_F(InterferenceModelTest, TopdownFractionsFormADistribution) {
  const auto perf = model_.evaluate(
      machine_, mix_of({{JobType::kWebServing, 3}, {JobType::kLpMcf, 5}}));
  for (const auto& j : perf.jobs) {
    const double sum = j.td_frontend + j.td_bad_speculation + j.td_retiring +
                       j.td_backend_mem + j.td_backend_core;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (const double f : {j.td_frontend, j.td_bad_speculation, j.td_retiring,
                           j.td_backend_mem, j.td_backend_core}) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
  }
}

TEST_F(InterferenceModelTest, MachineAggregatesAreConsistent) {
  const auto perf = model_.evaluate(
      machine_, mix_of({{JobType::kDataCaching, 2}, {JobType::kLpXalancbmk, 3}}));
  double total = 0.0, hp = 0.0;
  for (const auto& j : perf.jobs) {
    total += j.mips_per_instance * j.instances;
    if (is_high_priority(j.type)) hp += j.mips_per_instance * j.instances;
  }
  EXPECT_NEAR(perf.total_mips, total, 1e-9);
  EXPECT_NEAR(perf.hp_mips, hp, 1e-9);
  EXPECT_GT(perf.total_mips, perf.hp_mips);
  EXPECT_GT(perf.cpu_utilization, 0.0);
  EXPECT_LE(perf.cpu_utilization, 1.0 + 1e-12);
}

TEST_F(InterferenceModelTest, JobLookup) {
  const auto perf = model_.evaluate(machine_, mix_of({{JobType::kDataCaching, 1}}));
  EXPECT_EQ(perf.job(JobType::kDataCaching).type, JobType::kDataCaching);
  EXPECT_THROW((void)perf.job(JobType::kLpMcf), std::invalid_argument);
}

TEST_F(InterferenceModelTest, InherentMipsMatchesSoloEvaluation) {
  for (const JobType t : {JobType::kDataAnalytics, JobType::kLpMcf}) {
    JobMix solo;
    solo.add(t);
    EXPECT_NEAR(model_.inherent_mips(machine_, t),
                model_.evaluate(machine_, solo).job(t).mips_per_instance, 1e-9);
  }
}

TEST_F(InterferenceModelTest, InherentMipsIgnoresNoise) {
  ModelOptions noisy;
  noisy.enable_noise = true;
  noisy.noise_sigma = 0.1;
  const InterferenceModel noisy_model(default_job_catalog(), noisy);
  EXPECT_NEAR(noisy_model.inherent_mips(machine_, JobType::kWebSearch),
              model_.inherent_mips(machine_, JobType::kWebSearch), 1e-9);
}

TEST(InterferenceModelNoise, DeterministicPerStream) {
  const InterferenceModel model;  // noise enabled by default
  const MachineConfig machine = default_machine();
  JobMix mix;
  mix.add(JobType::kDataServing, 2);
  const auto a = model.evaluate(machine, mix, 7);
  const auto b = model.evaluate(machine, mix, 7);
  const auto c = model.evaluate(machine, mix, 8);
  EXPECT_DOUBLE_EQ(a.total_mips, b.total_mips);
  EXPECT_NE(a.total_mips, c.total_mips);
}

TEST(InterferenceModelNoise, NoiseIsSmall) {
  const InterferenceModel noisy;
  const InterferenceModel clean(default_job_catalog(), noiseless());
  const MachineConfig machine = default_machine();
  JobMix mix;
  mix.add(JobType::kGraphAnalytics, 3);
  const double ref = clean.evaluate(machine, mix).total_mips;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const double v = noisy.evaluate(machine, mix, s).total_mips;
    EXPECT_NEAR(v / ref, 1.0, 0.15);
  }
}

TEST(InterferenceModelOptions, ValidatesArguments) {
  ModelOptions bad;
  bad.bandwidth_iterations = 0;
  EXPECT_THROW(InterferenceModel(default_job_catalog(), bad), std::invalid_argument);
  bad = ModelOptions{};
  bad.noise_sigma = -0.1;
  EXPECT_THROW(InterferenceModel(default_job_catalog(), bad), std::invalid_argument);
}

class OccupancySweep : public ::testing::TestWithParam<int> {};

TEST_P(OccupancySweep, PerInstanceMipsDegradesMonotonically) {
  const InterferenceModel model(default_job_catalog(), noiseless());
  const MachineConfig machine = default_machine();
  const int n = GetParam();
  JobMix mix;
  mix.add(JobType::kInMemoryAnalytics, n);
  const double per_instance =
      model.evaluate(machine, mix).job(JobType::kInMemoryAnalytics).mips_per_instance;
  JobMix denser = mix;
  denser.add(JobType::kInMemoryAnalytics, 1);
  const double per_instance_denser =
      model.evaluate(machine, denser)
          .job(JobType::kInMemoryAnalytics)
          .mips_per_instance;
  EXPECT_LE(per_instance_denser, per_instance + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, OccupancySweep, ::testing::Values(1, 2, 4, 6, 8, 11));

}  // namespace
}  // namespace flare::dcsim
