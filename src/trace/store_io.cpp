#include "trace/store_io.hpp"

#include "trace/metric_io.hpp"

namespace flare::trace {

void save_column_store(const metrics::MetricDatabase& db, const std::string& path,
                       std::size_t block_rows) {
  metrics::create_column_store(path, db.catalog(), block_rows);
  if (db.num_rows() > 0) {
    metrics::append_column_store_rows(path, db);
  }
}

void csv_to_column_store(const std::string& csv_path,
                         const std::string& store_path,
                         const metrics::MetricCatalog& catalog,
                         std::size_t block_rows) {
  const metrics::MetricDatabase db = load_metric_database(csv_path, catalog);
  save_column_store(db, store_path, block_rows);
}

}  // namespace flare::trace
