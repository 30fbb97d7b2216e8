#include "trace/metric_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace flare::trace {
namespace {

metrics::MetricCatalog tiny_catalog() {
  std::vector<metrics::MetricInfo> infos;
  for (const char* name : {"Machine.X", "HP.Y"}) {
    metrics::MetricInfo m;
    m.index = infos.size();
    m.name = name;
    infos.push_back(std::move(m));
  }
  return metrics::MetricCatalog(std::move(infos));
}

class MetricIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test: ctest runs each TEST_F as its own process, so sibling
  // tests sharing one literal path clobber each other under `ctest -j`.
  std::string path_ =
      ::testing::TempDir() + "/flare_metrics_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  metrics::MetricCatalog catalog_ = tiny_catalog();
};

TEST_F(MetricIoTest, RoundTripsRows) {
  metrics::MetricDatabase db(catalog_);
  for (std::size_t i = 0; i < 3; ++i) {
    metrics::MetricRow row;
    row.scenario_id = i;
    row.scenario_key = "DC:" + std::to_string(i + 1);
    row.observation_weight = 1.0 + static_cast<double>(i);
    row.values = {static_cast<double>(i) * 1.5, -static_cast<double>(i)};
    db.add_row(std::move(row));
  }
  save_metric_database(db, path_);
  const metrics::MetricDatabase loaded = load_metric_database(path_, catalog_);
  ASSERT_EQ(loaded.num_rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.row(i).scenario_id, db.row(i).scenario_id);
    EXPECT_EQ(loaded.row(i).scenario_key, db.row(i).scenario_key);
    EXPECT_DOUBLE_EQ(loaded.row(i).observation_weight,
                     db.row(i).observation_weight);
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(loaded.row(i).values[c], db.row(i).values[c]);
    }
  }
}

TEST_F(MetricIoTest, RejectsCatalogMismatch) {
  metrics::MetricDatabase db(catalog_);
  metrics::MetricRow row;
  row.values = {1.0, 2.0};
  db.add_row(std::move(row));
  save_metric_database(db, path_);

  std::vector<metrics::MetricInfo> infos;
  metrics::MetricInfo m;
  m.index = 0;
  m.name = "Machine.Other";
  infos.push_back(m);
  const metrics::MetricCatalog other(std::move(infos));
  EXPECT_THROW((void)load_metric_database(path_, other), ParseError);
}

TEST_F(MetricIoTest, RejectsRenamedColumn) {
  metrics::MetricDatabase db(catalog_);
  metrics::MetricRow row;
  row.values = {1.0, 2.0};
  db.add_row(std::move(row));
  save_metric_database(db, path_);
  // Corrupt the header.
  std::ifstream in(path_);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  content.replace(content.find("Machine.X"), 9, "Machine.Z");
  std::ofstream out(path_);
  out << content;
  out.close();
  EXPECT_THROW((void)load_metric_database(path_, catalog_), ParseError);
}

TEST_F(MetricIoTest, AppendExtendsTheArchiveInPlace) {
  metrics::MetricDatabase db(catalog_);
  metrics::MetricRow row;
  row.scenario_id = 0;
  row.scenario_key = "DC:1";
  row.values = {1.0, 2.0};
  db.add_row(row);
  save_metric_database(db, path_);

  metrics::MetricDatabase batch(catalog_);
  row.scenario_id = 1;
  row.scenario_key = "WSC:2";
  row.observation_weight = 0.5;
  row.values = {3.25, -4.0};
  batch.add_row(row);
  append_metric_database(batch, path_);

  const metrics::MetricDatabase loaded = load_metric_database(path_, catalog_);
  ASSERT_EQ(loaded.num_rows(), 2u);
  EXPECT_EQ(loaded.row(1).scenario_key, "WSC:2");
  EXPECT_DOUBLE_EQ(loaded.row(1).observation_weight, 0.5);
  EXPECT_DOUBLE_EQ(loaded.row(1).values[0], 3.25);
}

TEST_F(MetricIoTest, AppendValidatesTheExistingHeader) {
  metrics::MetricDatabase batch(catalog_);
  metrics::MetricRow row;
  row.values = {1.0, 2.0};
  batch.add_row(std::move(row));
  // Missing file: the validating pre-load must throw, leaving nothing behind.
  EXPECT_THROW(append_metric_database(batch, path_), ParseError);
  {
    std::ofstream out(path_);
    out << "scenario_id,scenario_key,observation_weight,Machine.Z,HP.Y\n";
  }
  EXPECT_THROW(append_metric_database(batch, path_), ParseError);
}

TEST_F(MetricIoTest, RejectsBadFieldCounts) {
  {
    std::ofstream out(path_);
    out << "scenario_id,scenario_key,observation_weight,Machine.X,HP.Y\n";
    out << "0,DC:1,1.0,3.5\n";  // one value missing
  }
  EXPECT_THROW((void)load_metric_database(path_, catalog_), ParseError);
}

TEST_F(MetricIoTest, RejectsNonFiniteOrNegativeWeights) {
  for (const std::string token : {"nan", "inf", "-inf", "-1"}) {
    {
      std::ofstream out(path_);
      out << "scenario_id,scenario_key,observation_weight,Machine.X,HP.Y\n";
      out << "0,DC:1,1.0,3.5,2\n";
      out << "1,DC:2," << token << ",3.5,2\n";
    }
    try {
      (void)load_metric_database(path_, catalog_);
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

TEST_F(MetricIoTest, RejectsMissingFile) {
  EXPECT_THROW((void)load_metric_database("/no/such/file.csv", catalog_), ParseError);
}

}  // namespace
}  // namespace flare::trace
