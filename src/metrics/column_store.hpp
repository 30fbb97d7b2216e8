// Out-of-core columnar metric store (DESIGN.md §12).
//
// The in-RAM MetricDatabase holds every profiled scenario as a vector of
// MetricRow — perfect at the paper's n≈895, hopeless at the 10^5–10^7 rows a
// production fleet accumulates. ColumnStore is the mmap-backed alternative:
// rows live in a single append-only binary file as fixed-capacity *blocks*
// (columnar within each block), the OS pages data in on demand, and the
// analysis stages stream blocks column-major — only the columns they read —
// through one reusable scratch instead of ever materialising the n × d
// dense matrix.
//
// File layout (host-endian, like every other FLARE binary artifact):
//
//   header:  magic "FLARECS1" | u64 block_rows | u64 num_metrics
//            | u64 catalog_hash
//   block*:  u64 payload_bytes | u64 first_row | u64 rows
//            | u64 ids[rows] | f64 weights[rows]
//            | f64 values[num_metrics][rows]      (column-major in the block)
//            | { u32 len, char[len] } keys[rows]
//
// Blocks are self-delimiting (`payload_bytes` covers everything after
// itself), so appends are pure file growth — exactly the shape the PR-4
// write-ahead undo journal protects (see trace/store_io.hpp for the
// journaled append; a torn tail is rolled back by truncation). The header is
// never rewritten: the row count is the sum of the block directory scanned
// at open, which keeps journal rollback a pure truncate.
//
// Random row access (representative lookups) goes through a small fixed-size
// LRU of blocks decoded row-major with their ids and keys. Bulk reads
// (`for_each_block`) bypass the cache: each requested column is one memcpy
// out of the block into an aligned scratch (a block starts at whatever
// offset the variable-length keys before it leave, so no double is ever
// read in place from the mapping), and ids and keys are skipped. With
// `sequential_drop`, consumed pages are madvise(MADV_DONTNEED)'d behind the
// streaming cursor so peak RSS stays bounded by a few blocks regardless of
// n.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "metrics/metric_database.hpp"

namespace flare::metrics {

struct ColumnStoreOptions {
  /// Decoded-block LRU capacity for random row access.
  std::size_t cache_blocks = 4;
  /// Drop consumed pages behind the streaming cursor (MADV_DONTNEED) so a
  /// full-store scan keeps peak RSS at a few blocks. Off by default: repeated
  /// scans of a store that fits in memory should stay page-cache warm.
  bool sequential_drop = false;
  /// mmap the file (default). Off = read the whole file into RAM once —
  /// the portable fallback, also used automatically when mmap fails.
  bool use_mmap = true;
};

/// Creates an empty store file for `catalog` (truncates any existing file).
/// `block_rows` is the capacity of each appended block.
void create_column_store(const std::string& path, const MetricCatalog& catalog,
                         std::size_t block_rows = 1024);

/// Appends `batch`'s rows to an existing store as new blocks. NOT crash-safe
/// on its own — callers wanting rollback of torn appends must guard with
/// trace::AppendJournal (see trace/store_io.hpp, which wraps exactly that).
/// Throws ParseError when the store's schema does not match `batch`'s
/// catalog.
void append_column_store_rows(const std::string& path,
                              const MetricDatabase& batch);

/// One streamed block of ColumnStore::for_each_block, column-major: rows
/// [first_row, first_row + rows) of the requested columns. Column k (in
/// request order) is the `rows` doubles at values + k · stride.
struct BlockView {
  std::size_t first_row = 0;
  std::size_t rows = 0;
  std::size_t num_columns = 0;
  std::size_t stride = 0;  ///< doubles from one column's start to the next
  const double* values = nullptr;
  std::span<const double> weights;

  [[nodiscard]] std::span<const double> column(std::size_t k) const {
    return {values + k * stride, rows};
  }
};

/// Read-only view of a column store file.
class ColumnStore {
 public:
  /// Opens and validates the store. The catalog must match the one the store
  /// was created with (names and order — checked via the stored hash).
  /// Throws ParseError on malformed files, including torn block tails (run
  /// trace::recover_append first to roll back a crashed append). A mapped
  /// store releases the pages its directory scan touched before returning.
  explicit ColumnStore(const std::string& path, const MetricCatalog& catalog,
                       ColumnStoreOptions options = {});
  ~ColumnStore();

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  [[nodiscard]] std::size_t num_metrics() const { return num_metrics_; }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }
  [[nodiscard]] std::size_t block_rows() const { return block_rows_; }
  [[nodiscard]] const MetricCatalog& catalog() const { return *catalog_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool mapped() const { return mapped_; }

  /// Streams every block in row order, column-major: the view holds the
  /// block's rows of `columns` (store column indices, in the order given,
  /// repeats allowed) and its observation weights. Each column is copied
  /// with one memcpy into a 64-byte-aligned scratch reused across blocks;
  /// ids and keys are not decoded. The view is only valid inside the
  /// callback. With `sequential_drop`, pages behind the cursor are released
  /// as they are consumed.
  void for_each_block(std::span<const std::size_t> columns,
                      const std::function<void(const BlockView&)>& visit) const;

  /// Random row access through the decoded-block LRU (representative
  /// scenario lookups). Not thread-safe — the cache mutates.
  [[nodiscard]] MetricRow row(std::size_t index) const;

  /// LRU bookkeeping (tests assert the cache is actually bounded).
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::size_t cache_misses() const { return cache_misses_; }

 private:
  struct BlockInfo {
    std::uint64_t offset = 0;    ///< file offset of the payload_bytes field
    std::uint64_t payload = 0;   ///< bytes after the payload_bytes field
    std::size_t first_row = 0;
    std::size_t rows = 0;
  };

  /// One decoded block in the random-access LRU.
  struct DecodedBlock {
    std::size_t index = 0;
    std::vector<std::uint64_t> ids;
    std::vector<double> weights;
    linalg::Matrix values;  ///< row-major rows × num_metrics
    std::vector<std::string> keys;
  };

  [[nodiscard]] const std::byte* bytes() const;
  void decode_block(std::size_t block_index, DecodedBlock& out) const;
  [[nodiscard]] const DecodedBlock& cached_block(std::size_t block_index) const;
  [[nodiscard]] std::size_t block_of_row(std::size_t row_index) const;

  std::string path_;
  const MetricCatalog* catalog_;  ///< non-owning; catalogs are long-lived
  ColumnStoreOptions options_;
  std::size_t block_rows_ = 0;
  std::size_t num_metrics_ = 0;
  std::size_t num_rows_ = 0;
  std::vector<BlockInfo> blocks_;

  // Backing bytes: either an mmap'ed region or an owned in-RAM copy.
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  bool mapped_ = false;
  std::vector<std::byte> fallback_;

  // Decoded-block LRU (front = most recent). Mutable: row() is logically
  // const but warms the cache, mirroring how page caches behave.
  mutable std::list<DecodedBlock> lru_;
  mutable std::size_t cache_hits_ = 0;
  mutable std::size_t cache_misses_ = 0;
};

}  // namespace flare::metrics
