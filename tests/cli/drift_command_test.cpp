#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "trace/csv.hpp"

namespace flare::cli {
namespace {

int run(std::initializer_list<const char*> argv, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::vector<const char*> v = {"flare"};
  v.insert(v.end(), argv.begin(), argv.end());
  std::ostringstream out, err;
  const int code = run_cli(static_cast<int>(v.size()), v.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

class DriftCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per-test paths: ctest runs these cases concurrently, and fixed
    // fixture names would collide across processes.
    const std::string stem = ::testing::TempDir() + "/drift_" +
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    sc_a_ = stem + "_sc_a.csv";
    sc_b_ = stem + "_sc_b.csv";
    mx_a_ = stem + "_mx_a.csv";
    mx_b_ = stem + "_mx_b.csv";
    // Two honest draws of the same datacenter.
    ASSERT_EQ(run({"simulate", "--out", sc_a_.c_str(), "--scenarios", "120"}), 0);
    ASSERT_EQ(run({"simulate", "--out", sc_b_.c_str(), "--scenarios", "120",
                   "--seed", "99"}),
              0);
    ASSERT_EQ(run({"profile", "--scenarios", sc_a_.c_str(), "--out",
                   mx_a_.c_str()}),
              0);
    ASSERT_EQ(run({"profile", "--scenarios", sc_b_.c_str(), "--out",
                   mx_b_.c_str(), "--seed", "5555"}),
              0);
  }
  void TearDown() override {
    for (const std::string& p : {sc_a_, sc_b_, mx_a_, mx_b_}) {
      std::remove(p.c_str());
    }
  }
  std::string sc_a_;
  std::string sc_b_;
  std::string mx_a_;
  std::string mx_b_;
};

TEST_F(DriftCommandTest, SameDistributionReadsValid) {
  std::string out;
  ASSERT_EQ(run({"drift", "--baseline", mx_a_.c_str(), "--fresh", mx_b_.c_str(),
                 "--clusters", "6"},
                &out),
            0);
  EXPECT_NE(out.find("verdict: valid"), std::string::npos) << out;
  EXPECT_NE(out.find("distance scale"), std::string::npos);
}

TEST_F(DriftCommandTest, ThresholdsAreTunable) {
  std::string out;
  // An absurdly strict refit ratio forces the refit verdict on honest data.
  ASSERT_EQ(run({"drift", "--baseline", mx_a_.c_str(), "--fresh", mx_b_.c_str(),
                 "--clusters", "6", "--refit-ratio", "1.01"},
                &out),
            0);
  EXPECT_NE(out.find("verdict: refit"), std::string::npos) << out;
  EXPECT_NE(out.find("§5.5"), std::string::npos);
}

// A fresh batch with a non-finite metric cell is a fault (exit 5) that names
// the cell, never a verdict computed over a NaN distance.
TEST_F(DriftCommandTest, NonFiniteCellIsAFault) {
  std::vector<std::string> lines;
  {
    std::ifstream in(mx_b_);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 3u);
  {
    std::vector<std::string> fields = trace::parse_csv_row(lines[3]);
    fields[5] = "nan";  // third data row, third metric column
    std::ofstream out(mx_b_);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i == 3) {
        trace::write_csv_row(out, fields);
      } else {
        out << lines[i] << '\n';
      }
    }
  }
  std::string err;
  EXPECT_EQ(run({"drift", "--baseline", mx_a_.c_str(), "--fresh", mx_b_.c_str(),
                 "--clusters", "6"},
                nullptr, &err),
            5);
  EXPECT_NE(err.find("non-finite value at row 2, column 2"), std::string::npos)
      << err;
}

TEST_F(DriftCommandTest, MissingFilesAreReported) {
  std::string err;
  EXPECT_EQ(run({"drift", "--baseline", "/no/such.csv", "--fresh", mx_b_.c_str()},
                nullptr, &err),
            2);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST_F(DriftCommandTest, AppearsInHelp) {
  std::string out;
  ASSERT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("drift"), std::string::npos);
}

}  // namespace
}  // namespace flare::cli
