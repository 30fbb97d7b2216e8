#include "metrics/column_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tests/util/store_readers.hpp"
#include "util/error.hpp"

namespace flare::metrics {
namespace {

MetricCatalog tiny_catalog() {
  std::vector<MetricInfo> metrics;
  for (const char* name : {"Machine.A", "Machine.B", "HP.A", "HP.B"}) {
    MetricInfo m;
    m.index = metrics.size();
    m.name = name;
    metrics.push_back(std::move(m));
  }
  return MetricCatalog(std::move(metrics));
}

MetricDatabase make_database(const MetricCatalog& catalog, std::size_t rows,
                             std::size_t id_base = 0) {
  MetricDatabase db(catalog);
  for (std::size_t i = 0; i < rows; ++i) {
    MetricRow row;
    row.scenario_id = id_base + i;
    row.scenario_key = "DC:" + std::to_string(id_base + i + 1);
    row.observation_weight = 1.0 + 0.25 * static_cast<double>(i % 7);
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      row.values.push_back(static_cast<double>(id_base + i) * 0.5 +
                           static_cast<double>(c) * 1.25 - 3.0);
    }
    db.add_row(std::move(row));
  }
  return db;
}

class ColumnStoreTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test: ctest runs each TEST_F as its own process, so sibling
  // tests sharing one literal path clobber each other under `ctest -j`.
  std::string path_ =
      ::testing::TempDir() + "/flare_store_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".fcs";
  MetricCatalog catalog_ = tiny_catalog();
};

TEST_F(ColumnStoreTest, RoundTripsBitIdentically) {
  const MetricDatabase db = make_database(catalog_, 25);
  create_column_store(path_, catalog_, /*block_rows=*/8);
  append_column_store_rows(path_, db);

  const ColumnStore store(path_, catalog_);
  ASSERT_EQ(store.num_rows(), 25u);
  EXPECT_EQ(store.num_metrics(), catalog_.size());
  EXPECT_EQ(store.num_blocks(), 4u);  // ceil(25 / 8)
  EXPECT_EQ(store.block_rows(), 8u);

  // Every byte of every value survives the round trip.
  const linalg::Matrix expect = db.to_matrix();
  const linalg::Matrix got = testing::store_matrix(store);
  ASSERT_EQ(got.rows(), expect.rows());
  ASSERT_EQ(got.cols(), expect.cols());
  EXPECT_EQ(got.data(), expect.data());
  EXPECT_EQ(testing::store_weights(store), db.weights());
}

TEST_F(ColumnStoreTest, RowAccessRecoversKeysAndWeights) {
  const MetricDatabase db = make_database(catalog_, 19);
  create_column_store(path_, catalog_, /*block_rows=*/4);
  append_column_store_rows(path_, db);

  const ColumnStore store(path_, catalog_);
  for (const std::size_t i : {0u, 3u, 4u, 18u}) {
    const MetricRow row = store.row(i);
    EXPECT_EQ(row.scenario_id, db.row(i).scenario_id);
    EXPECT_EQ(row.scenario_key, db.row(i).scenario_key);
    EXPECT_EQ(row.observation_weight, db.row(i).observation_weight);
    EXPECT_EQ(row.values, db.row(i).values);
  }
  EXPECT_THROW(store.row(19), std::invalid_argument);
}

TEST_F(ColumnStoreTest, DecodedBlockLruIsBounded) {
  const MetricDatabase db = make_database(catalog_, 64);
  create_column_store(path_, catalog_, /*block_rows=*/4);  // 16 blocks
  append_column_store_rows(path_, db);

  ColumnStoreOptions options;
  options.cache_blocks = 2;
  const ColumnStore store(path_, catalog_, options);
  // Two rows in the same block: one miss, then a hit.
  (void)store.row(0);
  (void)store.row(1);
  EXPECT_EQ(store.cache_misses(), 1u);
  EXPECT_EQ(store.cache_hits(), 1u);
  // Touch more blocks than the cache holds, then come back: re-decoded.
  (void)store.row(10);
  (void)store.row(20);
  (void)store.row(0);
  EXPECT_EQ(store.cache_misses(), 4u);
}

TEST_F(ColumnStoreTest, ForEachBlockStreamsInRowOrder) {
  const MetricDatabase db = make_database(catalog_, 21);
  create_column_store(path_, catalog_, /*block_rows=*/8);
  append_column_store_rows(path_, db);

  const ColumnStore store(path_, catalog_);
  const linalg::Matrix expect = db.to_matrix();
  std::size_t next_row = 0;
  store.for_each_block(testing::all_store_columns(store),
                       [&](const BlockView& block) {
    EXPECT_EQ(block.first_row, next_row);
    ASSERT_EQ(block.rows, block.weights.size());
    ASSERT_EQ(block.num_columns, catalog_.size());
    for (std::size_t r = 0; r < block.rows; ++r) {
      EXPECT_EQ(block.weights[r],
                db.row(block.first_row + r).observation_weight);
      for (std::size_t c = 0; c < block.num_columns; ++c) {
        EXPECT_EQ(block.column(c)[r], expect(block.first_row + r, c));
      }
    }
    next_row += block.rows;
  });
  EXPECT_EQ(next_row, 21u);
}

// The column-major view of every block equals db.to_matrix() bit for bit,
// for all columns and for an out-of-order subset with a repeat, over a
// ragged layout: two appends leave a 5-row block between full ones, and
// keys of odd lengths start most blocks at offsets that are not a multiple
// of 8. Every column the visitor sees is 64-byte aligned all the same, on
// the mapped and the buffered store, with and without sequential_drop.
TEST_F(ColumnStoreTest, BlockViewMatchesDenseMatrixAtEveryLayout) {
  MetricDatabase db(catalog_);
  const MetricDatabase plain = make_database(catalog_, 13);
  for (std::size_t i = 0; i < plain.num_rows(); ++i) {
    MetricRow row = plain.row(i);
    row.scenario_key += std::string(2 * (i % 3) + 1, 'k');
    db.add_row(std::move(row));
  }
  const MetricDatabase tail = make_database(catalog_, 6, /*id_base=*/13);
  create_column_store(path_, catalog_, /*block_rows=*/8);
  append_column_store_rows(path_, db);
  append_column_store_rows(path_, tail);
  std::vector<double> weights = db.weights();
  for (const double w : tail.weights()) weights.push_back(w);
  linalg::Matrix expect(19, catalog_.size());
  for (std::size_t r = 0; r < 19; ++r) {
    expect.set_row(r, r < 13 ? db.row(r).values : tail.row(r - 13).values);
  }

  for (const bool mmap : {true, false}) {
    for (const bool drop : {false, true}) {
      ColumnStoreOptions options;
      options.use_mmap = mmap;
      options.sequential_drop = drop;
      const ColumnStore store(path_, catalog_, options);
      ASSERT_EQ(store.num_blocks(), 3u);
      ASSERT_EQ(store.mapped(), mmap);
      for (const std::vector<std::size_t>& columns :
           {testing::all_store_columns(store),
            std::vector<std::size_t>{3, 0, 2, 0}}) {
        std::vector<std::size_t> block_rows;
        std::size_t next_row = 0;
        store.for_each_block(columns, [&](const BlockView& block) {
          ASSERT_EQ(block.first_row, next_row);
          ASSERT_EQ(block.num_columns, columns.size());
          block_rows.push_back(block.rows);
          for (std::size_t k = 0; k < columns.size(); ++k) {
            const std::span<const double> column = block.column(k);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(column.data()) % 64, 0u);
            for (std::size_t r = 0; r < block.rows; ++r) {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(column[r]),
                        std::bit_cast<std::uint64_t>(
                            expect(block.first_row + r, columns[k])));
            }
          }
          for (std::size_t r = 0; r < block.rows; ++r) {
            EXPECT_EQ(block.weights[r], weights[block.first_row + r]);
          }
          next_row += block.rows;
        });
        EXPECT_EQ(next_row, 19u);
        EXPECT_EQ(block_rows, (std::vector<std::size_t>{8, 5, 6}));
      }
      EXPECT_EQ(testing::store_matrix(store).data(), expect.data());
      EXPECT_THROW(store.for_each_block(std::vector<std::size_t>{4},
                                        [](const BlockView&) {}),
                   std::invalid_argument);
    }
  }
}

TEST_F(ColumnStoreTest, AppendGrowsAndChangesSignature) {
  create_column_store(path_, catalog_, /*block_rows=*/8);
  append_column_store_rows(path_, make_database(catalog_, 10));
  {
    const ColumnStore store(path_, catalog_);
    EXPECT_EQ(store.num_rows(), 10u);
  }
  append_column_store_rows(path_, make_database(catalog_, 5, /*id_base=*/10));
  const ColumnStore store(path_, catalog_);
  EXPECT_EQ(store.num_rows(), 15u);
  EXPECT_EQ(store.row(12).scenario_id, 12u);
}

TEST_F(ColumnStoreTest, RejectsCatalogMismatch) {
  create_column_store(path_, catalog_, 8);
  append_column_store_rows(path_, make_database(catalog_, 4));
  std::vector<MetricInfo> renamed;
  for (const char* name : {"Machine.A", "Machine.B", "HP.A", "HP.DIFFERENT"}) {
    MetricInfo m;
    m.index = renamed.size();
    m.name = name;
    renamed.push_back(std::move(m));
  }
  const MetricCatalog other(std::move(renamed));
  EXPECT_THROW(ColumnStore(path_, other), ParseError);
  EXPECT_THROW(append_column_store_rows(path_, make_database(other, 2)),
               ParseError);
}

TEST_F(ColumnStoreTest, RejectsTornTail) {
  create_column_store(path_, catalog_, 8);
  append_column_store_rows(path_, make_database(catalog_, 12));
  // Chop bytes off the last block: the self-delimiting directory scan must
  // notice the tail cannot hold the advertised payload.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  in.close();
  std::filesystem::resize_file(path_, static_cast<std::uintmax_t>(size - 16));
  EXPECT_THROW(ColumnStore(path_, catalog_), ParseError);
}

// A block whose row count its payload cannot hold is rejected at open, so
// no read ever runs past the block.
TEST_F(ColumnStoreTest, RejectsRowCountBeyondPayload) {
  create_column_store(path_, catalog_, 8);
  append_column_store_rows(path_, make_database(catalog_, 3));
  {
    std::fstream io(path_, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(32 + 8 + 8);  // header, payload_bytes, first_row
    const std::uint64_t rows = 8;
    io.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  }
  EXPECT_THROW(ColumnStore(path_, catalog_), ParseError);
}

/// Resident kB of every mapping of `path` in /proc/self/smaps, or -1 when
/// the file cannot be read or names no such mapping.
long mapped_rss_kb(const std::string& path) {
  std::ifstream smaps("/proc/self/smaps");
  const std::string target = std::filesystem::canonical(path).string();
  long total = -1;
  bool in_target = false;
  for (std::string line; std::getline(smaps, line);) {
    // A mapping's first line is "start-end perms offset dev inode path".
    if (!line.empty() && std::isxdigit(static_cast<unsigned char>(line[0])) &&
        line.find('-') < line.find(' ')) {
      in_target = line.size() >= target.size() &&
                  line.compare(line.size() - target.size(), target.size(),
                               target) == 0;
      if (in_target && total < 0) total = 0;
    } else if (in_target && line.rfind("Rss:", 0) == 0) {
      total += std::stol(line.substr(4));
    }
  }
  return total;
}

// The directory scan reads one header per block, and fault-around maps the
// pages around each; the constructor releases them, so an opened store that
// has not been read holds (almost) no file pages.
TEST_F(ColumnStoreTest, OpenLeavesNoHeaderPagesResident) {
  // 200 blocks of 8 rows over a wide schema: about 2 MiB of file, one
  // header every ~8 KiB.
  std::vector<MetricInfo> infos;
  for (std::size_t c = 0; c < 128; ++c) {
    MetricInfo m;
    m.index = c;
    m.name = "Machine.M" + std::to_string(c);
    infos.push_back(std::move(m));
  }
  const MetricCatalog wide(std::move(infos));
  create_column_store(path_, wide, /*block_rows=*/8);
  append_column_store_rows(path_, make_database(wide, 1600));

  const ColumnStore store(path_, wide);
  if (!store.mapped()) GTEST_SKIP() << "store is not mmapped";
  ASSERT_EQ(store.num_blocks(), 200u);
  const long rss_kb = mapped_rss_kb(path_);
  if (rss_kb < 0) GTEST_SKIP() << "no readable /proc/self/smaps entry";
  EXPECT_LE(rss_kb, 64) << "kB of the store resident after open";
  // Reading it back still works: the pages fault in again.
  EXPECT_EQ(store.row(1599).scenario_id, 1599u);
}

TEST_F(ColumnStoreTest, BufferedFallbackMatchesMmap) {
  const MetricDatabase db = make_database(catalog_, 17);
  create_column_store(path_, catalog_, /*block_rows=*/8);
  append_column_store_rows(path_, db);

  ColumnStoreOptions buffered;
  buffered.use_mmap = false;
  const ColumnStore ram(path_, catalog_, buffered);
  const ColumnStore mapped(path_, catalog_);
  EXPECT_FALSE(ram.mapped());
  EXPECT_EQ(testing::store_matrix(ram).data(),
            testing::store_matrix(mapped).data());
}

}  // namespace
}  // namespace flare::metrics
