#include "trace/metric_io.hpp"

#include <fstream>
#include <optional>

#include "trace/csv.hpp"
#include "trace/journal.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::trace {

void save_metric_database(const metrics::MetricDatabase& db, const std::string& path) {
  std::ofstream out(path);
  ensure(static_cast<bool>(out), "save_metric_database: cannot open file: " + path);

  std::vector<std::string> header = {"scenario_id", "scenario_key",
                                     "observation_weight"};
  for (const metrics::MetricInfo& m : db.catalog().metrics()) header.push_back(m.name);
  write_csv_row(out, header);

  for (const metrics::MetricRow& row : db.rows()) {
    std::vector<std::string> fields = {std::to_string(row.scenario_id),
                                       row.scenario_key,
                                       util::format_double_exact(row.observation_weight)};
    for (const double v : row.values) {
      fields.push_back(util::format_double_exact(v));
    }
    write_csv_row(out, fields);
  }
  ensure(static_cast<bool>(out), "save_metric_database: write failed: " + path);
}

metrics::MetricDatabase load_metric_database(const std::string& path,
                                             const metrics::MetricCatalog& catalog) {
  const CsvContent content = read_csv_content(path);
  if (!content.complete_final_line) {
    throw ParseError("load_metric_database: " + path +
                     ": truncated final line (no trailing newline) — torn "
                     "append? run recover_append() / flare ingest --resume");
  }
  const std::vector<std::string>& lines = content.lines;
  if (lines.empty()) throw ParseError("load_metric_database: empty file: " + path);

  const std::vector<std::string> header = parse_csv_row(lines.front(), path, 1);
  if (header.size() != 3 + catalog.size()) {
    throw ParseError("load_metric_database: " + path +
                     ": column count does not match catalog");
  }
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (header[3 + i] != catalog.info(i).name) {
      throw ParseError("load_metric_database: " + path +
                       ":1: metric column mismatch — offending token '" +
                       header[3 + i] + "'");
    }
  }

  metrics::MetricDatabase db(catalog);
  db.reserve(lines.size() - 1);  // every non-header line becomes one row
  for (std::size_t l = 1; l < lines.size(); ++l) {
    const std::size_t line_no = l + 1;
    const std::vector<std::string> fields = parse_csv_row(lines[l], path, line_no);
    if (fields.size() != header.size()) {
      throw ParseError("load_metric_database: " + path + ":" +
                       std::to_string(line_no) + ": expected " +
                       std::to_string(header.size()) + " fields, got " +
                       std::to_string(fields.size()));
    }
    metrics::MetricRow row;
    row.scenario_id =
        static_cast<std::size_t>(parse_csv_int(fields[0], path, line_no));
    row.scenario_key = fields[1];
    row.observation_weight = parse_csv_weight(fields[2], path, line_no);
    row.values.reserve(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      row.values.push_back(parse_csv_double(fields[3 + i], path, line_no));
    }
    db.add_row(std::move(row));
  }
  return db;
}

void append_metric_database(const metrics::MetricDatabase& batch,
                            const std::string& path, bool journaled) {
  // Validates the existing file's header against the batch's catalog (throws
  // ParseError on mismatch) so the append cannot produce a ragged archive.
  (void)load_metric_database(path, batch.catalog());
  std::optional<AppendJournal> journal;
  if (journaled) journal.emplace(path);
  {
    std::ofstream out(path, std::ios::app);
    ensure(static_cast<bool>(out),
           "append_metric_database: cannot open file: " + path);
    for (const metrics::MetricRow& row : batch.rows()) {
      std::vector<std::string> fields = {std::to_string(row.scenario_id),
                                         row.scenario_key,
                                         util::format_double_exact(row.observation_weight)};
      for (const double v : row.values) {
        fields.push_back(util::format_double_exact(v));
      }
      write_csv_row(out, fields);
    }
    out.flush();
    ensure(static_cast<bool>(out), "append_metric_database: write failed: " + path);
  }
  if (journal) journal->commit();
}

}  // namespace flare::trace
