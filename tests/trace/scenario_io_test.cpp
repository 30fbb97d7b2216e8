#include "trace/scenario_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/error.hpp"

namespace flare::trace {
namespace {

dcsim::ScenarioSet sample_set() {
  dcsim::ScenarioSet set;
  set.machine_type = "default";
  for (std::size_t i = 0; i < 5; ++i) {
    dcsim::ColocationScenario s;
    s.id = i;
    s.machine_type = "default";
    s.mix.add(dcsim::JobType::kDataCaching, static_cast<int>(i) + 1);
    s.mix.add(dcsim::JobType::kLpMcf, 1);
    s.observation_weight = 0.5 + static_cast<double>(i);
    set.scenarios.push_back(std::move(s));
  }
  return set;
}

class ScenarioIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test: ctest runs each TEST_F as its own process, so sibling
  // tests sharing one literal path clobber each other under `ctest -j`.
  std::string path_ =
      ::testing::TempDir() + "/flare_scenarios_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(ScenarioIoTest, RoundTripsExactly) {
  const dcsim::ScenarioSet original = sample_set();
  save_scenario_set(original, path_);
  const dcsim::ScenarioSet loaded = load_scenario_set(path_);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.machine_type, original.machine_type);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.scenarios[i].id, original.scenarios[i].id);
    EXPECT_EQ(loaded.scenarios[i].mix, original.scenarios[i].mix);
    EXPECT_NEAR(loaded.scenarios[i].observation_weight,
                original.scenarios[i].observation_weight, 1e-9);
    EXPECT_EQ(loaded.scenarios[i].machine_type, original.scenarios[i].machine_type);
  }
}

TEST_F(ScenarioIoTest, RejectsWrongHeader) {
  {
    std::ofstream out(path_);
    out << "bogus,header\n";
  }
  EXPECT_THROW((void)load_scenario_set(path_), ParseError);
}

TEST_F(ScenarioIoTest, RejectsWrongFieldCount) {
  {
    std::ofstream out(path_);
    out << "scenario_id,machine_type,observation_weight,job_mix\n";
    out << "0,default,1.0\n";
  }
  EXPECT_THROW((void)load_scenario_set(path_), ParseError);
}

TEST_F(ScenarioIoTest, RejectsNonDenseIds) {
  {
    std::ofstream out(path_);
    out << "scenario_id,machine_type,observation_weight,job_mix\n";
    out << "5,default,1.0,DA:1\n";
  }
  EXPECT_THROW((void)load_scenario_set(path_), ParseError);
}

TEST_F(ScenarioIoTest, RejectsNegativeWeights) {
  {
    std::ofstream out(path_);
    out << "scenario_id,machine_type,observation_weight,job_mix\n";
    out << "0,default,-1.0,DA:1\n";
  }
  EXPECT_THROW((void)load_scenario_set(path_), ParseError);
}

// A NaN or infinite weight would turn every cluster weight and estimate
// into NaN downstream, so the loader refuses it with the line and token.
TEST_F(ScenarioIoTest, RejectsNonFiniteWeights) {
  for (const std::string token : {"nan", "inf", "-inf"}) {
    {
      std::ofstream out(path_);
      out << "scenario_id,machine_type,observation_weight,job_mix\n";
      out << "0,default,1.0,DA:1\n";
      out << "1,default," << token << ",DA:1\n";
    }
    try {
      (void)load_scenario_set(path_);
      ADD_FAILURE() << "weight '" << token << "' loaded";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path_ + ":3:"), std::string::npos) << what;
      EXPECT_NE(what.find("offending token '" + token + "'"),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(ScenarioIoTest, RejectsUnknownJobCodes) {
  {
    std::ofstream out(path_);
    out << "scenario_id,machine_type,observation_weight,job_mix\n";
    out << "0,default,1.0,NOPE:1\n";
  }
  EXPECT_THROW((void)load_scenario_set(path_), ParseError);
}

TEST_F(ScenarioIoTest, AppendContinuesTheIdSequence) {
  save_scenario_set(sample_set(), path_);
  dcsim::ScenarioSet batch;
  batch.machine_type = "default";
  for (std::size_t i = 0; i < 3; ++i) {
    dcsim::ColocationScenario s;
    s.id = 40 + i;  // collector-assigned ids are ignored on append
    s.machine_type = "default";
    s.mix.add(dcsim::JobType::kWebSearch, 2);
    s.observation_weight = 1.0;
    batch.scenarios.push_back(std::move(s));
  }
  append_scenario_set(batch, path_);
  const dcsim::ScenarioSet loaded = load_scenario_set(path_);
  ASSERT_EQ(loaded.size(), 8u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.scenarios[i].id, i);
  }
  EXPECT_EQ(loaded.scenarios[5].mix, batch.scenarios[0].mix);
}

TEST_F(ScenarioIoTest, AppendRequiresAnExistingValidFile) {
  EXPECT_THROW(append_scenario_set(sample_set(), path_), std::exception);
  {
    std::ofstream out(path_);
    out << "bogus,header\n";
  }
  EXPECT_THROW(append_scenario_set(sample_set(), path_), ParseError);
}

TEST_F(ScenarioIoTest, SaveRejectsUnwritablePath) {
  EXPECT_THROW(save_scenario_set(sample_set(), "/nonexistent/dir/x.csv"),
               std::invalid_argument);
}

TEST_F(ScenarioIoTest, EmptySetRoundTrips) {
  dcsim::ScenarioSet empty;
  save_scenario_set(empty, path_);
  const dcsim::ScenarioSet loaded = load_scenario_set(path_);
  EXPECT_EQ(loaded.size(), 0u);
}

}  // namespace
}  // namespace flare::trace
