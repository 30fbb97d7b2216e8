#include "metrics/column_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "util/error.hpp"
#include "util/hash.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FLARE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace flare::metrics {
namespace {

constexpr char kMagic[8] = {'F', 'L', 'A', 'R', 'E', 'C', 'S', '1'};
constexpr std::size_t kHeaderBytes = 8 + 3 * sizeof(std::uint64_t);

/// RAII stdio handle (the writer paths; the reader maps or slurps).
struct File {
  std::FILE* f = nullptr;
  explicit File(const std::string& path, const char* mode)
      : f(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

void write_bytes(std::FILE* f, const void* data, std::size_t bytes,
                 const std::string& path) {
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    throw ParseError("column store: short write to " + path);
  }
}

void write_u64(std::FILE* f, std::uint64_t v, const std::string& path) {
  write_bytes(f, &v, sizeof(v), path);
}

template <typename T>
T read_pod(const std::byte* base, std::size_t size, std::size_t offset,
           const std::string& path) {
  if (offset + sizeof(T) > size) {
    throw ParseError("column store " + path +
                     ": truncated file (torn append? run recover_append)");
  }
  T v;
  std::memcpy(&v, base + offset, sizeof(T));
  return v;
}

/// Stable hash of a catalog's metric names (order-sensitive) — stored in the
/// header so a store is never silently read against the wrong schema.
std::uint64_t catalog_hash(const MetricCatalog& catalog) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const MetricInfo& info : catalog.metrics()) {
    h = util::fnv1a(info.name, h);
    h = util::fnv1a("\n", h);
  }
  return h;
}

}  // namespace

void create_column_store(const std::string& path, const MetricCatalog& catalog,
                         std::size_t block_rows) {
  ensure(block_rows > 0, "create_column_store: block_rows must be positive");
  ensure(catalog.size() > 0, "create_column_store: empty catalog");
  File file(path, "wb");
  if (file.f == nullptr) {
    throw ParseError("create_column_store: cannot create " + path);
  }
  write_bytes(file.f, kMagic, sizeof(kMagic), path);
  write_u64(file.f, block_rows, path);
  write_u64(file.f, catalog.size(), path);
  write_u64(file.f, catalog_hash(catalog), path);
  if (std::fflush(file.f) != 0) {
    throw ParseError("create_column_store: cannot flush " + path);
  }
}

void append_column_store_rows(const std::string& path,
                              const MetricDatabase& batch) {
  // Validate the header against the batch's catalog, and find the current
  // row count by scanning the self-delimiting block directory — the header
  // is immutable so a journal rollback stays a pure truncate.
  std::uint64_t block_rows = 0;
  std::uint64_t next_row = 0;
  {
    File file(path, "rb");
    if (file.f == nullptr) {
      throw ParseError("append_column_store_rows: cannot open " + path);
    }
    char magic[8];
    std::uint64_t header[3];
    if (std::fread(magic, 1, sizeof(magic), file.f) != sizeof(magic) ||
        std::fread(header, sizeof(std::uint64_t), 3, file.f) != 3 ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
      throw ParseError("append_column_store_rows: " + path +
                       " is not a column store");
    }
    block_rows = header[0];
    if (header[1] != batch.num_metrics() ||
        header[2] != catalog_hash(batch.catalog())) {
      throw ParseError("append_column_store_rows: catalog mismatch for " + path);
    }
    std::uint64_t payload = 0;
    while (std::fread(&payload, sizeof(payload), 1, file.f) == 1) {
      std::uint64_t first_row = 0, rows = 0;
      if (std::fread(&first_row, sizeof(first_row), 1, file.f) != 1 ||
          std::fread(&rows, sizeof(rows), 1, file.f) != 1 ||
          std::fseek(file.f,
                     static_cast<long>(payload - 2 * sizeof(std::uint64_t)),
                     SEEK_CUR) != 0) {
        throw ParseError("append_column_store_rows: torn block tail in " +
                         path + " — run recover_append first");
      }
      next_row = first_row + rows;
    }
  }

  File file(path, "ab");
  if (file.f == nullptr) {
    throw ParseError("append_column_store_rows: cannot append to " + path);
  }
  const std::size_t d = batch.num_metrics();
  for (std::size_t start = 0; start < batch.num_rows(); start += block_rows) {
    const std::size_t rows = std::min<std::size_t>(block_rows,
                                                   batch.num_rows() - start);
    std::size_t key_bytes = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      key_bytes += sizeof(std::uint32_t) +
                   batch.row(start + r).scenario_key.size();
    }
    const std::uint64_t payload = 2 * sizeof(std::uint64_t) +  // first_row, rows
                                  rows * sizeof(std::uint64_t) +
                                  rows * sizeof(double) +
                                  rows * d * sizeof(double) + key_bytes;
    write_u64(file.f, payload, path);
    write_u64(file.f, next_row + start, path);
    write_u64(file.f, rows, path);
    for (std::size_t r = 0; r < rows; ++r) {
      write_u64(file.f, batch.row(start + r).scenario_id, path);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double w = batch.row(start + r).observation_weight;
      write_bytes(file.f, &w, sizeof(w), path);
    }
    // Column-major within the block: one metric's values are contiguous.
    std::vector<double> column(rows);
    for (std::size_t c = 0; c < d; ++c) {
      for (std::size_t r = 0; r < rows; ++r) {
        column[r] = batch.row(start + r).values[c];
      }
      write_bytes(file.f, column.data(), rows * sizeof(double), path);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const std::string& key = batch.row(start + r).scenario_key;
      const std::uint32_t len = static_cast<std::uint32_t>(key.size());
      write_bytes(file.f, &len, sizeof(len), path);
      write_bytes(file.f, key.data(), key.size(), path);
    }
  }
  if (std::fflush(file.f) != 0) {
    throw ParseError("append_column_store_rows: cannot flush " + path);
  }
}

ColumnStore::ColumnStore(const std::string& path, const MetricCatalog& catalog,
                         ColumnStoreOptions options)
    : path_(path), catalog_(&catalog), options_(options) {
#if FLARE_HAVE_MMAP
  if (options_.use_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw ParseError("ColumnStore: cannot open " + path);
    }
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        map_ = map;
        map_size_ = static_cast<std::size_t>(st.st_size);
        mapped_ = true;
      }
    }
    ::close(fd);
  }
#endif
  if (!mapped_) {
    File file(path, "rb");
    if (file.f == nullptr) {
      throw ParseError("ColumnStore: cannot open " + path);
    }
    std::fseek(file.f, 0, SEEK_END);
    const long size = std::ftell(file.f);
    std::fseek(file.f, 0, SEEK_SET);
    fallback_.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    if (!fallback_.empty() &&
        std::fread(fallback_.data(), 1, fallback_.size(), file.f) !=
            fallback_.size()) {
      throw ParseError("ColumnStore: short read of " + path);
    }
    map_size_ = fallback_.size();
  }

  const std::byte* base = bytes();
  if (map_size_ < kHeaderBytes ||
      std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    throw ParseError("ColumnStore: " + path + " is not a column store");
  }
  block_rows_ = read_pod<std::uint64_t>(base, map_size_, 8, path_);
  num_metrics_ = read_pod<std::uint64_t>(base, map_size_, 16, path_);
  const std::uint64_t stored_hash =
      read_pod<std::uint64_t>(base, map_size_, 24, path_);
  if (num_metrics_ != catalog.size() || stored_hash != catalog_hash(catalog)) {
    throw ParseError("ColumnStore: catalog mismatch for " + path +
                     " — the store was created with a different metric schema");
  }
  ensure(block_rows_ > 0, "ColumnStore: corrupt header (block_rows = 0)");

  // Scan the block directory.
  std::size_t offset = kHeaderBytes;
  while (offset < map_size_) {
    BlockInfo info;
    info.offset = offset;
    info.payload = read_pod<std::uint64_t>(base, map_size_, offset, path_);
    const std::size_t body = offset + sizeof(std::uint64_t);
    if (body + info.payload > map_size_ ||
        info.payload < 2 * sizeof(std::uint64_t)) {
      throw ParseError("ColumnStore: torn block tail in " + path_ +
                       " — run trace::recover_append to roll it back");
    }
    info.first_row = read_pod<std::uint64_t>(base, map_size_, body, path_);
    info.rows = read_pod<std::uint64_t>(base, map_size_, body + 8, path_);
    // Every row carries an id, a weight, num_metrics values and a key
    // length, so a row count the payload cannot hold is corrupt too.
    if (info.first_row != num_rows_ || info.rows == 0 ||
        info.rows > block_rows_ ||
        (info.payload - 2 * sizeof(std::uint64_t)) /
                (2 * sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                 num_metrics_ * sizeof(double)) <
            info.rows) {
      throw ParseError("ColumnStore: corrupt block directory in " + path_);
    }
    num_rows_ += info.rows;
    blocks_.push_back(info);
    offset = body + info.payload;
  }

#if FLARE_HAVE_MMAP
  if (mapped_) {
    // The scan read one header per block, and fault-around mapped the pages
    // around each; release them so an opened store holds no file pages
    // until it is read.
    ::madvise(map_, map_size_, MADV_DONTNEED);
    ::madvise(map_, map_size_,
              options_.sequential_drop ? MADV_SEQUENTIAL : MADV_NORMAL);
  }
#endif
}

ColumnStore::~ColumnStore() {
#if FLARE_HAVE_MMAP
  if (mapped_ && map_ != nullptr) {
    ::munmap(map_, map_size_);
  }
#endif
}

const std::byte* ColumnStore::bytes() const {
  return mapped_ ? static_cast<const std::byte*>(map_) : fallback_.data();
}

void ColumnStore::decode_block(std::size_t block_index, DecodedBlock& out) const {
  const BlockInfo& info = blocks_[block_index];
  const std::byte* base = bytes();
  std::size_t offset = info.offset + sizeof(std::uint64_t) + 16;  // skip header
  out.index = block_index;
  out.ids.resize(info.rows);
  std::memcpy(out.ids.data(), base + offset, info.rows * sizeof(std::uint64_t));
  offset += info.rows * sizeof(std::uint64_t);
  out.weights.resize(info.rows);
  std::memcpy(out.weights.data(), base + offset, info.rows * sizeof(double));
  offset += info.rows * sizeof(double);
  // Transpose the column-major payload into the row-major matrix row()
  // reads.
  out.values = linalg::Matrix(info.rows, num_metrics_);
  std::vector<double> column(info.rows);
  for (std::size_t c = 0; c < num_metrics_; ++c) {
    std::memcpy(column.data(), base + offset, info.rows * sizeof(double));
    offset += info.rows * sizeof(double);
    for (std::size_t r = 0; r < info.rows; ++r) {
      out.values(r, c) = column[r];
    }
  }
  out.keys.resize(info.rows);
  for (std::size_t r = 0; r < info.rows; ++r) {
    const std::uint32_t len =
        read_pod<std::uint32_t>(base, map_size_, offset, path_);
    offset += sizeof(std::uint32_t);
    if (offset + len > map_size_) {
      throw ParseError("ColumnStore: corrupt key section in " + path_);
    }
    out.keys[r].assign(reinterpret_cast<const char*>(base + offset), len);
    offset += len;
  }
}

void ColumnStore::for_each_block(
    std::span<const std::size_t> columns,
    const std::function<void(const BlockView&)>& visit) const {
  for (const std::size_t c : columns) {
    ensure(c < num_metrics_, "ColumnStore::for_each_block: column out of range");
  }
  std::size_t max_rows = 0;
  for (const BlockInfo& info : blocks_) max_rows = std::max(max_rows, info.rows);
  // One scratch for every block: the columns, then the weights, each on a
  // 64-byte boundary (stride is a multiple of 8 doubles).
  const std::size_t stride = (max_rows + 7) / 8 * 8;
  const std::size_t scratch_doubles = (columns.size() + 1) * stride;
  std::vector<double> buffer(scratch_doubles + 7);
  void* aligned = buffer.data();
  std::size_t space = buffer.size() * sizeof(double);
  double* const scratch =
      static_cast<double*>(std::align(64, scratch_doubles * sizeof(double),
                                      aligned, space));
  double* const weights = scratch + columns.size() * stride;
  const std::byte* base = bytes();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const BlockInfo& info = blocks_[b];
    const std::size_t column_bytes = info.rows * sizeof(double);
    // Skip the block header and the ids.
    const std::byte* block_weights =
        base + info.offset + 3 * sizeof(std::uint64_t) + column_bytes;
    const std::byte* block_values = block_weights + column_bytes;
    std::memcpy(weights, block_weights, column_bytes);
    for (std::size_t k = 0; k < columns.size(); ++k) {
      std::memcpy(scratch + k * stride,
                  block_values + columns[k] * column_bytes, column_bytes);
    }
    visit(BlockView{info.first_row, info.rows, columns.size(), stride,
                    scratch, std::span<const double>(weights, info.rows)});
#if FLARE_HAVE_MMAP
    if (mapped_ && options_.sequential_drop) {
      // Release fully consumed pages behind the cursor: whole pages only,
      // from the previous block's start, because the kernel's fault-around
      // maps the previous block's tail again when this block's first
      // column is read.
      const long page = ::sysconf(_SC_PAGESIZE);
      if (page > 0) {
        const std::size_t p = static_cast<std::size_t>(page);
        const std::size_t from = b == 0 ? info.offset : blocks_[b - 1].offset;
        const std::size_t lo = from / p * p;
        const std::size_t end = info.offset + 8 + info.payload;
        const std::size_t hi = (end / p) * p;
        if (hi > lo) {
          ::madvise(static_cast<std::byte*>(map_) + lo, hi - lo,
                    MADV_DONTNEED);
        }
      }
    }
#endif
  }
}

std::size_t ColumnStore::block_of_row(std::size_t row_index) const {
  ensure(row_index < num_rows_, "ColumnStore::row: index out of range");
  // Blocks other than the append tails are full, so a direct guess is almost
  // always right; fall back to a linear walk for ragged layouts.
  std::size_t guess = std::min(row_index / block_rows_, blocks_.size() - 1);
  while (guess > 0 && blocks_[guess].first_row > row_index) --guess;
  while (guess + 1 < blocks_.size() &&
         blocks_[guess].first_row + blocks_[guess].rows <= row_index) {
    ++guess;
  }
  return guess;
}

const ColumnStore::DecodedBlock& ColumnStore::cached_block(
    std::size_t block_index) const {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->index == block_index) {
      ++cache_hits_;
      lru_.splice(lru_.begin(), lru_, it);
      return lru_.front();
    }
  }
  ++cache_misses_;
  lru_.emplace_front();
  decode_block(block_index, lru_.front());
  const std::size_t cap = std::max<std::size_t>(1, options_.cache_blocks);
  while (lru_.size() > cap) lru_.pop_back();
  return lru_.front();
}

MetricRow ColumnStore::row(std::size_t index) const {
  const std::size_t b = block_of_row(index);
  const DecodedBlock& block = cached_block(b);
  const std::size_t local = index - blocks_[b].first_row;
  MetricRow row;
  row.scenario_id = block.ids[local];
  row.scenario_key = block.keys[local];
  row.observation_weight = block.weights[local];
  const std::span<const double> values = block.values.row(local);
  row.values.assign(values.begin(), values.end());
  return row;
}

}  // namespace flare::metrics
