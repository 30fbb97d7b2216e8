#include "trace/store_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "tests/util/store_readers.hpp"
#include "trace/journal.hpp"
#include "trace/metric_io.hpp"
#include "util/error.hpp"

namespace flare::trace {
namespace {

metrics::MetricCatalog tiny_catalog() {
  std::vector<metrics::MetricInfo> infos;
  for (const char* name : {"Machine.X", "Machine.Y", "HP.Z"}) {
    metrics::MetricInfo m;
    m.index = infos.size();
    m.name = name;
    infos.push_back(std::move(m));
  }
  return metrics::MetricCatalog(std::move(infos));
}

metrics::MetricDatabase make_database(const metrics::MetricCatalog& catalog,
                                      std::size_t rows,
                                      std::size_t id_base = 0) {
  metrics::MetricDatabase db(catalog);
  for (std::size_t i = 0; i < rows; ++i) {
    metrics::MetricRow row;
    row.scenario_id = id_base + i;
    row.scenario_key = "DC:" + std::to_string(id_base + i + 1);
    row.observation_weight = 1.0 + static_cast<double>(i % 3);
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      row.values.push_back(std::sin(static_cast<double>(id_base + i + c)) *
                           10.0);
    }
    db.add_row(std::move(row));
  }
  return db;
}

class StoreIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(store_path_.c_str());
    std::remove(csv_path_.c_str());
    std::remove((store_path_ + ".journal").c_str());
  }
  // Unique per test: ctest runs each TEST_F as its own process, so sibling
  // tests sharing one literal path clobber each other under `ctest -j`.
  std::string test_name_ =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string store_path_ =
      ::testing::TempDir() + "/flare_io_store_" + test_name_ + ".fcs";
  std::string csv_path_ =
      ::testing::TempDir() + "/flare_io_metrics_" + test_name_ + ".csv";
  metrics::MetricCatalog catalog_ = tiny_catalog();
};

TEST_F(StoreIoTest, SaveRoundTrips) {
  const metrics::MetricDatabase db = make_database(catalog_, 13);
  save_column_store(db, store_path_, /*block_rows=*/4);
  const metrics::ColumnStore store(store_path_, catalog_);
  EXPECT_EQ(store.num_rows(), 13u);
  EXPECT_EQ(testing::store_matrix(store).data(), db.to_matrix().data());
}

TEST_F(StoreIoTest, JournaledAppendCommits) {
  save_column_store(make_database(catalog_, 6), store_path_, 4);
  {
    AppendJournal journal(store_path_);
    metrics::append_column_store_rows(store_path_,
                                      make_database(catalog_, 3, 6));
    journal.commit();
  }
  // A committed append leaves no journal behind and all rows readable.
  const JournalRecovery recovery = recover_append(store_path_);
  EXPECT_FALSE(recovery.recovered);
  const metrics::ColumnStore store(store_path_, catalog_);
  EXPECT_EQ(store.num_rows(), 9u);
  EXPECT_EQ(store.row(8).scenario_id, 8u);
}

TEST_F(StoreIoTest, TornAppendRollsBackByTruncation) {
  save_column_store(make_database(catalog_, 6), store_path_, 4);
  const std::uintmax_t clean_size = std::filesystem::file_size(store_path_);

  // Simulate a crash mid-append: journal written, blocks partially appended,
  // no commit. The journal object is leaked-on-purpose via a scope that
  // appends without commit().
  {
    AppendJournal journal(store_path_);
    append_column_store_rows(store_path_, make_database(catalog_, 3, 6));
    // Tear the tail to mimic an interrupted write.
    std::filesystem::resize_file(
        store_path_, std::filesystem::file_size(store_path_) - 7);
    // no journal.commit()
  }

  const JournalRecovery recovery = recover_append(store_path_);
  EXPECT_TRUE(recovery.recovered);
  EXPECT_TRUE(recovery.truncated);
  EXPECT_EQ(std::filesystem::file_size(store_path_), clean_size);
  const metrics::ColumnStore store(store_path_, catalog_);
  EXPECT_EQ(store.num_rows(), 6u);
}

TEST_F(StoreIoTest, CsvConversionMatchesCsvLoad) {
  const metrics::MetricDatabase db = make_database(catalog_, 11);
  save_metric_database(db, csv_path_);
  csv_to_column_store(csv_path_, store_path_, catalog_, /*block_rows=*/4);

  const metrics::MetricDatabase from_csv =
      load_metric_database(csv_path_, catalog_);
  const metrics::ColumnStore store(store_path_, catalog_);
  ASSERT_EQ(store.num_rows(), from_csv.num_rows());
  // The store must reproduce exactly what the CSV loader produced (the CSV
  // text round trip itself is lossless per metric_io_test).
  EXPECT_EQ(testing::store_matrix(store).data(), from_csv.to_matrix().data());
  EXPECT_EQ(testing::store_weights(store), from_csv.weights());
  for (std::size_t i = 0; i < store.num_rows(); ++i) {
    EXPECT_EQ(store.row(i).scenario_key, from_csv.row(i).scenario_key);
  }
}

}  // namespace
}  // namespace flare::trace
