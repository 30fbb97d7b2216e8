#include "dcsim/submission.hpp"

#include <gtest/gtest.h>

#include <set>

namespace flare::dcsim {
namespace {

SubmissionConfig quick_config() {
  SubmissionConfig c;
  c.target_distinct_scenarios = 120;  // keep unit tests fast
  return c;
}

TEST(Submission, ReachesTargetDistinctScenarios) {
  const ScenarioSet set = generate_scenario_set(quick_config(), default_machine());
  EXPECT_GE(set.size(), 120u);
  EXPECT_LT(set.size(), 160u) << "should stop shortly after reaching the target";
}

TEST(Submission, ScenariosAreDistinctByMix) {
  const ScenarioSet set = generate_scenario_set(quick_config(), default_machine());
  std::set<std::string> keys;
  for (const auto& s : set.scenarios) {
    EXPECT_TRUE(keys.insert(s.mix.key()).second) << "duplicate mix " << s.mix.key();
  }
}

TEST(Submission, EveryScenarioHasAnHpJobAndFits) {
  const ScenarioSet set = generate_scenario_set(quick_config(), default_machine());
  for (const auto& s : set.scenarios) {
    EXPECT_GT(s.mix.hp_instances(), 0) << "performance is defined on HP jobs";
    EXPECT_LE(s.mix.vcpus(), default_machine().scheduling_vcpus());
    EXPECT_GT(s.observation_weight, 0.0);
  }
}

TEST(Submission, IdsAreDenseAndOrdered) {
  const ScenarioSet set = generate_scenario_set(quick_config(), default_machine());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(set.scenarios[i].id, i);
  }
}

TEST(Submission, DeterministicPerSeed) {
  const ScenarioSet a = generate_scenario_set(quick_config(), default_machine());
  const ScenarioSet b = generate_scenario_set(quick_config(), default_machine());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].mix, b.scenarios[i].mix);
    EXPECT_DOUBLE_EQ(a.scenarios[i].observation_weight,
                     b.scenarios[i].observation_weight);
  }
}

TEST(Submission, DifferentSeedsGiveDifferentLandscapes) {
  SubmissionConfig c1 = quick_config();
  SubmissionConfig c2 = quick_config();
  c2.seed = 999;
  const ScenarioSet a = generate_scenario_set(c1, default_machine());
  const ScenarioSet b = generate_scenario_set(c2, default_machine());
  std::size_t shared = 0;
  std::set<std::string> keys;
  for (const auto& s : a.scenarios) keys.insert(s.mix.key());
  for (const auto& s : b.scenarios) {
    if (keys.count(s.mix.key()) != 0) ++shared;
  }
  EXPECT_LT(shared, a.size());  // not identical populations
}

TEST(Submission, StatsAreFilled) {
  SubmissionStats stats;
  (void)generate_scenario_set(quick_config(), default_machine(),
                              default_job_catalog(), &stats);
  EXPECT_GT(stats.submissions, 0u);
  EXPECT_GT(stats.placements, 0u);
  EXPECT_GT(stats.simulated_hours, 0.0);
  EXPECT_GT(stats.mean_cpu_occupancy, 0.2);
  EXPECT_LT(stats.mean_cpu_occupancy, 1.0);
}

TEST(Submission, OccupancyShowsStepPattern) {
  // Fig. 3a: containers are 4-vCPU quanta, so occupancies are multiples of 4.
  const ScenarioSet set = generate_scenario_set(quick_config(), default_machine());
  for (const auto& s : set.scenarios) {
    EXPECT_EQ(s.mix.vcpus() % 4, 0);
  }
}

TEST(Submission, DiverseOccupancyLevels) {
  const ScenarioSet set = generate_scenario_set(quick_config(), default_machine());
  std::set<int> occupancies;
  for (const auto& s : set.scenarios) occupancies.insert(s.mix.vcpus());
  EXPECT_GE(occupancies.size(), 6u) << "the landscape should span many load levels";
}

TEST(Submission, SmallMachineShapeYieldsSmallerMixes) {
  const ScenarioSet set = generate_scenario_set(quick_config(), small_machine());
  EXPECT_EQ(set.machine_type, "small");
  for (const auto& s : set.scenarios) {
    EXPECT_LE(s.mix.vcpus(), small_machine().scheduling_vcpus());
  }
}

TEST(Submission, MaxHoursStopsRunawaySimulations) {
  SubmissionConfig c = quick_config();
  c.target_distinct_scenarios = 100000;  // unreachable
  c.max_sim_hours = 2.0;
  SubmissionStats stats;
  const ScenarioSet set =
      generate_scenario_set(c, default_machine(), default_job_catalog(), &stats);
  EXPECT_LE(stats.simulated_hours, 2.5);
  EXPECT_GT(set.size(), 0u);
}

TEST(Submission, ValidatesConfig) {
  SubmissionConfig c = quick_config();
  c.num_machines = 0;
  EXPECT_THROW(generate_scenario_set(c, default_machine()), std::invalid_argument);
  c = quick_config();
  c.arrivals_per_hour = 0.0;
  EXPECT_THROW(generate_scenario_set(c, default_machine()), std::invalid_argument);
  c = quick_config();
  c.hp_fraction = 1.5;
  EXPECT_THROW(generate_scenario_set(c, default_machine()), std::invalid_argument);
  c = quick_config();
  c.hp_type_weights = {1.0};  // wrong arity
  EXPECT_THROW(generate_scenario_set(c, default_machine()), std::invalid_argument);
}

TEST(Submission, HpFractionShiftsPopulation) {
  SubmissionConfig mostly_hp = quick_config();
  mostly_hp.hp_fraction = 0.95;
  SubmissionConfig mostly_lp = quick_config();
  mostly_lp.hp_fraction = 0.2;
  const ScenarioSet hp_set = generate_scenario_set(mostly_hp, default_machine());
  const ScenarioSet lp_set = generate_scenario_set(mostly_lp, default_machine());
  double hp_share_a = 0.0, hp_share_b = 0.0;
  for (const auto& s : hp_set.scenarios) {
    hp_share_a += static_cast<double>(s.mix.hp_instances()) / s.mix.total_instances();
  }
  for (const auto& s : lp_set.scenarios) {
    hp_share_b += static_cast<double>(s.mix.hp_instances()) / s.mix.total_instances();
  }
  EXPECT_GT(hp_share_a / hp_set.size(), hp_share_b / lp_set.size());
}

}  // namespace
}  // namespace flare::dcsim
