// The one CLI data plane: every pipeline command runs a ShardedPipeline, and
// a run without --shapes is a one-shape fleet of --machine. These tests run
// analyze, evaluate, ingest and report on a two-shape trace, pin the printed
// fleet estimate to the library's, check that a plain run is byte-equal to
// the same run with --shapes default:1, and that a trace naming another
// shape than --machine is refused with exit code 2.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "core/feature.hpp"
#include "core/sharded_pipeline.hpp"
#include "dcsim/fleet.hpp"
#include "trace/scenario_io.hpp"

namespace flare::cli {
namespace {

int run(std::vector<std::string> argv, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> v = {"flare"};
  for (const std::string& a : argv) v.push_back(a.c_str());
  std::ostringstream out, err;
  const int code = run_cli(static_cast<int>(v.size()), v.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The integer after `prefix` in `text` (e.g. the attempt count of a line).
long long number_after(const std::string& text, const std::string& prefix) {
  const std::size_t at = text.find(prefix);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + prefix.size()));
}

constexpr const char* kShapes = "default:3,small:2";

class FleetCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(run({"simulate", "--shapes", kShapes, "--scenarios", "120",
                   "--seed", "7", "--out", fleet_}),
              0);
    // Default-shape rows only: the batch touches one shard of the fleet.
    ASSERT_EQ(run({"simulate", "--scenarios", "30", "--seed", "11", "--out",
                   batch_}),
              0);
  }
  void TearDown() override {
    for (const std::string& path :
         {fleet_, batch_, extra_, metrics_, report_}) {
      std::remove(path.c_str());
    }
  }
  // Unique per-test paths: ctest runs these cases concurrently.
  std::string stem_ =
      ::testing::TempDir() + "/fleet_cli_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string fleet_ = stem_ + "_fleet.csv";
  std::string batch_ = stem_ + "_batch.csv";
  std::string extra_ = stem_ + "_extra.csv";
  std::string metrics_ = stem_ + "_metrics.csv";
  std::string report_ = stem_ + "_report.md";
};

TEST_F(FleetCliTest, EveryPipelineCommandRunsOnATwoShapeTrace) {
  std::string out;
  // The default shape's vCPUs hold every small-shape mix, so one profiler
  // pass yields the row-aligned metric archive analyze --shapes routes.
  ASSERT_EQ(run({"profile", "--scenarios", fleet_, "--out", metrics_,
                 "--samples", "2"}),
            0);
  ASSERT_EQ(run({"analyze", "--metrics", metrics_, "--scenarios", fleet_,
                 "--shapes", kShapes, "--clusters", "5"},
                &out),
            0);
  EXPECT_NE(out.find("shape default (w=60%)"), std::string::npos) << out;
  EXPECT_NE(out.find("shape small (w=40%)"), std::string::npos) << out;
  EXPECT_NE(out.find("clusters: 5"), std::string::npos) << out;
  EXPECT_NE(out.find("fleet: "), std::string::npos) << out;

  ASSERT_EQ(run({"evaluate", "--scenarios", fleet_, "--shapes", kShapes,
                 "--feature", "feature1", "--clusters", "5", "--truth",
                 "--per-job"},
                &out),
            0);
  EXPECT_NE(out.find("fleet estimate:"), std::string::npos) << out;
  EXPECT_NE(out.find("fleet-wide truth:"), std::string::npos) << out;
  EXPECT_NE(out.find("\nshape small:\nFLARE estimate:"), std::string::npos)
      << out;
  EXPECT_NE(out.find("full-datacenter truth:"), std::string::npos) << out;
  EXPECT_NE(out.find("per-HP-job impacts (fleet-wide):"), std::string::npos);

  ASSERT_EQ(run({"ingest", "--scenarios", fleet_, "--batch", batch_,
                 "--shapes", kShapes, "--clusters", "5"},
                &out),
            0);
  EXPECT_NE(out.find("across 2 shards"), std::string::npos) << out;
  EXPECT_NE(out.find("stage re-runs:"), std::string::npos) << out;

  ASSERT_EQ(run({"report", "--scenarios", fleet_, "--shapes", kShapes,
                 "--out", report_, "--features", "feature1", "--clusters",
                 "5", "--truth"},
                &out),
            0);
  EXPECT_NE(out.find("across 2 shards"), std::string::npos) << out;
  const std::string md = read_file(report_);
  EXPECT_NE(md.find("# FLARE fleet feature-evaluation report"),
            std::string::npos);
  EXPECT_NE(md.find("fleet truth"), std::string::npos);
  EXPECT_NE(md.find("## Shape `small`"), std::string::npos);
  EXPECT_NE(md.find("### Representative scenarios"), std::string::npos);
}

TEST_F(FleetCliTest, PrintedFleetEstimateIsTheLibraryEstimate) {
  std::string out;
  ASSERT_EQ(run({"evaluate", "--scenarios", fleet_, "--shapes", kShapes,
                 "--feature", "feature2", "--clusters", "5"},
                &out),
            0);

  core::ShardedConfig config;
  config.base.analyzer.fixed_clusters = 5;
  config.base.analyzer.compute_quality_curve = false;
  config.fleet = dcsim::parse_fleet_spec(kShapes);
  core::ShardedPipeline pipeline(config);
  pipeline.fit(trace::load_scenario_set(fleet_));
  const core::FleetEstimate est = pipeline.evaluate(core::feature_dvfs_cap());
  std::ostringstream expected;
  expected << "fleet estimate: " << est.impact_pct << "% HP MIPS reduction ("
           << est.scenario_replays << " scenario replays";
  EXPECT_NE(out.find(expected.str()), std::string::npos)
      << "expected '" << expected.str() << "' in:\n"
      << out;
}

TEST_F(FleetCliTest, IngestReportsTheUntouchedShape) {
  std::string out;
  ASSERT_EQ(run({"ingest", "--scenarios", fleet_, "--batch", batch_,
                 "--shapes", kShapes, "--clusters", "5"},
                &out),
            0);
  EXPECT_NE(out.find("shape small: untouched (no rows routed)"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("shape default: untouched"), std::string::npos) << out;
  EXPECT_NE(out.find("\nshape default:\nbatch:  "), std::string::npos) << out;
  EXPECT_NE(out.find(" rows routed to 1/2 shards"), std::string::npos) << out;
}

TEST_F(FleetCliTest, NoShapesIsByteEqualToAOneShapeFleet) {
  // batch_ is a default-shape trace: use it as the single-shape population.
  const std::string& single = batch_;
  ASSERT_EQ(run({"simulate", "--scenarios", "150", "--seed", "5", "--out",
                 single}),
            0);
  ASSERT_EQ(run({"simulate", "--scenarios", "30", "--seed", "13", "--out",
                 extra_}),
            0);
  const std::vector<std::vector<std::string>> commands = {
      {"evaluate", "--scenarios", single, "--feature", "feature1",
       "--clusters", "5", "--truth", "--sampling", "--per-job"},
      {"evaluate", "--scenarios", single, "--feature", "feature2",
       "--clusters", "5", "--replay-faults", "0.2"},
      {"campaign", "--scenarios", single, "--feature", "feature2",
       "--clusters", "5", "--testbeds", "2", "--truth"},
      {"ingest", "--scenarios", single, "--batch", extra_, "--clusters",
       "5", "--drift-response", "on", "--faults", "0.1"},
  };
  for (const std::vector<std::string>& command : commands) {
    std::string plain, fleet;
    ASSERT_EQ(run(command, &plain), 0);
    std::vector<std::string> sharded = command;
    sharded.insert(sharded.end(), {"--shapes", "default:1"});
    ASSERT_EQ(run(sharded, &fleet), 0);
    EXPECT_EQ(plain, fleet) << command[0];
  }

  std::string plain, fleet;
  ASSERT_EQ(run({"report", "--scenarios", single, "--out", report_,
                 "--clusters", "5", "--truth", "--replay-faults", "0.2"},
                &plain),
            0);
  const std::string plain_md = read_file(report_);
  ASSERT_EQ(run({"report", "--scenarios", single, "--out", report_,
                 "--clusters", "5", "--truth", "--replay-faults", "0.2",
                 "--shapes", "default:1"},
                &fleet),
            0);
  EXPECT_EQ(plain, fleet);
  EXPECT_EQ(plain_md, read_file(report_));
  EXPECT_NE(plain_md.find("# FLARE feature-evaluation report"),
            std::string::npos);

  ASSERT_EQ(run({"profile", "--scenarios", single, "--out", metrics_,
                 "--samples", "2"}),
            0);
  ASSERT_EQ(run({"analyze", "--metrics", metrics_, "--clusters", "5"}, &plain),
            0);
  ASSERT_EQ(run({"analyze", "--metrics", metrics_, "--clusters", "5",
                 "--shapes", "default:1", "--scenarios", single},
                &fleet),
            0);
  EXPECT_EQ(plain, fleet);
}

TEST_F(FleetCliTest, TraceOfAnotherShapeThanMachineIsRefused) {
  // A small-shape trace run on the default --machine used to be profiled on
  // the wrong machine silently; now it fails like --shapes does.
  ASSERT_EQ(run({"simulate", "--machine", "small", "--scenarios", "100",
                 "--out", batch_}),
            0);
  std::string err;
  for (const std::vector<std::string>& command :
       std::vector<std::vector<std::string>>{
           {"evaluate", "--scenarios", batch_, "--feature", "feature1"},
           {"campaign", "--scenarios", batch_, "--feature", "feature1"},
           {"report", "--scenarios", batch_, "--out", report_},
           {"ingest", "--scenarios", fleet_, "--batch", batch_, "--shapes",
            "default:1"}}) {
    EXPECT_EQ(run(command, nullptr, &err), 2) << command[0];
    EXPECT_NE(err.find("shape id out of range"), std::string::npos) << err;
  }
  std::string out;
  EXPECT_EQ(run({"evaluate", "--scenarios", batch_, "--feature", "feature1",
                 "--clusters", "5", "--machine", "small"},
                &out),
            0);
}

TEST_F(FleetCliTest, SingleShapeOnlyFlagsAreRejectedOnAFleet) {
  std::string err;
  EXPECT_EQ(run({"evaluate", "--scenarios", fleet_, "--shapes", kShapes,
                 "--feature", "feature1", "--sampling"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--sampling requires a single shape"), std::string::npos);
  EXPECT_EQ(run({"analyze", "--metrics", metrics_, "--scenarios", fleet_,
                 "--shapes", kShapes, "--storage", "mmap"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--storage mmap requires a single shape"),
            std::string::npos);
  EXPECT_EQ(run({"ingest", "--scenarios", fleet_, "--batch", batch_,
                 "--shapes", kShapes, "--metrics", metrics_, "--commit"},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("--metrics requires a single shape"), std::string::npos);
}

TEST_F(FleetCliTest, ReportBillsEachReplayOnce) {
  // `report` used to evaluate every feature twice (estimates table, then
  // breakdown) and print twice the attempts `evaluate` bills.
  ASSERT_EQ(run({"simulate", "--scenarios", "100", "--seed", "5", "--out",
                 batch_}),
            0);
  std::string evaluated, reported;
  ASSERT_EQ(run({"evaluate", "--scenarios", batch_, "--feature", "feature1",
                 "--clusters", "5", "--replay-faults", "0.2"},
                &evaluated),
            0);
  ASSERT_EQ(run({"report", "--scenarios", batch_, "--out", report_,
                 "--features", "feature1", "--clusters", "5",
                 "--replay-faults", "0.2"},
                &reported),
            0);
  const long long evaluate_attempts =
      number_after(evaluated, "replay health: ");
  ASSERT_GT(evaluate_attempts, 0) << evaluated;
  EXPECT_EQ(number_after(reported, "replay attempts: "), evaluate_attempts)
      << reported;
}

}  // namespace
}  // namespace flare::cli
