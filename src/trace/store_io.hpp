// Column-store persistence glue (DESIGN.md §12): writing a database as a
// fresh store, plus conversion from the CSV archives.
//
// The column store's append path is pure file growth (the header is never
// rewritten), so the same write-ahead undo journal that guards CSV appends
// (trace/journal.hpp) guards store appends: open an AppendJournal, append
// blocks, commit. A crash anywhere in between is rolled back by
// `recover_append(path)` — a pure truncation that leaves the store exactly
// as before the append.
#pragma once

#include <string>

#include "metrics/column_store.hpp"
#include "metrics/metric_database.hpp"

namespace flare::trace {

/// Writes `db` as a fresh column store at `path` (create + one append).
void save_column_store(const metrics::MetricDatabase& db, const std::string& path,
                       std::size_t block_rows = 1024);

/// Converts a metric CSV archive (trace/metric_io.hpp format) into a column
/// store — the migration path for existing archives. Streams through an
/// in-RAM database (the CSV must be loadable anyway to be validated).
void csv_to_column_store(const std::string& csv_path,
                         const std::string& store_path,
                         const metrics::MetricCatalog& catalog,
                         std::size_t block_rows = 1024);

}  // namespace flare::trace
