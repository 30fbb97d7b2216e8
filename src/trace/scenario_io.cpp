#include "trace/scenario_io.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "trace/csv.hpp"
#include "trace/journal.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::trace {
namespace {
constexpr const char* kHeader = "scenario_id,machine_type,observation_weight,job_mix";
// Extended header for non-stationary traces (dcsim/dynamics.hpp): written
// only when some row carries a non-default dynamics tag, so stationary
// archives stay byte-identical to the historical 4-field format; the reader
// accepts both.
constexpr const char* kDynamicsHeader =
    "scenario_id,machine_type,observation_weight,job_mix,"
    "profile_version,profile_shift,anomaly_episode,anomaly_intensity";

bool any_dynamic_tagged(const dcsim::ScenarioSet& set) {
  for (const dcsim::ColocationScenario& s : set.scenarios) {
    if (s.dynamic_tagged()) return true;
  }
  return false;
}

void write_scenario_row(std::ostream& out, const dcsim::ColocationScenario& s,
                        std::size_t id, bool extended) {
  if (!extended) {
    write_csv_row(out, {std::to_string(id), s.machine_type,
                        util::format_double_exact(s.observation_weight),
                        s.mix.key()});
    return;
  }
  write_csv_row(out, {std::to_string(id), s.machine_type,
                      util::format_double_exact(s.observation_weight),
                      s.mix.key(), std::to_string(s.profile_version),
                      util::format_double_exact(s.profile_shift),
                      std::to_string(s.anomaly_episode),
                      util::format_double_exact(s.anomaly_intensity)});
}

/// First line of the file at `path` ("" when unreadable/empty).
std::string file_header(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  }
  return "";
}

}  // namespace

void save_scenario_set(const dcsim::ScenarioSet& set, const std::string& path) {
  std::ofstream out(path);
  ensure(static_cast<bool>(out), "save_scenario_set: cannot open file: " + path);
  const bool extended = any_dynamic_tagged(set);
  out << (extended ? kDynamicsHeader : kHeader) << '\n';
  for (const dcsim::ColocationScenario& s : set.scenarios) {
    write_scenario_row(out, s, s.id, extended);
  }
  ensure(static_cast<bool>(out), "save_scenario_set: write failed: " + path);
}

namespace {

/// Shared parsing core for the file and wire paths: `origin` labels every
/// ParseError (a path for archives, a client tag for wire batches).
dcsim::ScenarioSet parse_scenario_lines(
    const CsvContent& content, const std::string& origin,
    const std::vector<std::string>& valid_shapes) {
  const std::string& path = origin;
  if (!content.complete_final_line) {
    throw ParseError("load_scenario_set: " + path +
                     ": truncated final line (no trailing newline) — torn "
                     "append? run recover_append() / flare ingest --resume");
  }
  const std::vector<std::string>& lines = content.lines;
  bool extended = false;
  if (!lines.empty() && lines.front() == kDynamicsHeader) {
    extended = true;
  } else if (lines.empty() || lines.front() != kHeader) {
    throw ParseError("load_scenario_set: missing or wrong header in " + path);
  }
  const std::size_t num_fields = extended ? 8 : 4;
  dcsim::ScenarioSet set;
  set.scenarios.reserve(lines.size() - 1);  // one row per non-header line
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t line_no = i + 1;
    const std::vector<std::string> fields = parse_csv_row(lines[i], path, line_no);
    if (fields.size() != num_fields) {
      throw ParseError("load_scenario_set: " + path + ":" +
                       std::to_string(line_no) + ": expected " +
                       std::to_string(num_fields) + " fields, got " +
                       std::to_string(fields.size()));
    }
    dcsim::ColocationScenario s;
    s.id = static_cast<std::size_t>(parse_csv_int(fields[0], path, line_no));
    s.machine_type = fields[1];
    if (s.machine_type.empty()) {
      throw ParseError("load_scenario_set: " + path + ":" +
                       std::to_string(line_no) +
                       ": shape id (machine_type) is absent — the row cannot "
                       "be routed to any shard");
    }
    if (!valid_shapes.empty() &&
        std::find(valid_shapes.begin(), valid_shapes.end(), s.machine_type) ==
            valid_shapes.end()) {
      throw ParseError("load_scenario_set: " + path + ":" +
                       std::to_string(line_no) +
                       ": shape id out of range for the fleet — offending "
                       "token '" +
                       s.machine_type + "'");
    }
    s.observation_weight = parse_csv_weight(fields[2], path, line_no);
    try {
      s.mix = dcsim::JobMix::from_key(fields[3]);
    } catch (const ParseError& e) {
      throw ParseError("load_scenario_set: " + path + ":" +
                       std::to_string(line_no) + ": " + e.what() +
                       " — offending token '" + fields[3] + "'");
    }
    if (extended) {
      const long long version = parse_csv_int(fields[4], path, line_no);
      if (version < 1) {
        throw ParseError("load_scenario_set: " + path + ":" +
                         std::to_string(line_no) +
                         ": profile_version must be >= 1 — offending token '" +
                         fields[4] + "'");
      }
      s.profile_version = static_cast<int>(version);
      s.profile_shift = parse_csv_double(fields[5], path, line_no);
      const long long episode = parse_csv_int(fields[6], path, line_no);
      if (episode < 0) {
        throw ParseError("load_scenario_set: " + path + ":" +
                         std::to_string(line_no) +
                         ": negative anomaly_episode — offending token '" +
                         fields[6] + "'");
      }
      s.anomaly_episode = static_cast<std::uint32_t>(episode);
      s.anomaly_intensity = parse_csv_double(fields[7], path, line_no);
      if (s.profile_shift < 0.0 || s.anomaly_intensity < 0.0) {
        throw ParseError("load_scenario_set: " + path + ":" +
                         std::to_string(line_no) +
                         ": negative dynamics magnitude — offending token '" +
                         (s.profile_shift < 0.0 ? fields[5] : fields[7]) + "'");
      }
    }
    if (s.id != set.scenarios.size()) {
      throw ParseError("load_scenario_set: " + path + ":" +
                       std::to_string(line_no) +
                       ": non-dense scenario ids — offending token '" +
                       fields[0] + "'");
    }
    set.scenarios.push_back(std::move(s));
  }
  if (!set.scenarios.empty()) set.machine_type = set.scenarios.front().machine_type;
  return set;
}

}  // namespace

dcsim::ScenarioSet load_scenario_set(const std::string& path) {
  return load_scenario_set(path, {});
}

dcsim::ScenarioSet load_scenario_set(const std::string& path,
                                     const std::vector<std::string>& valid_shapes) {
  return parse_scenario_lines(read_csv_content(path), path, valid_shapes);
}

std::string scenario_set_to_csv(const dcsim::ScenarioSet& set) {
  std::ostringstream out;
  const bool extended = any_dynamic_tagged(set);
  out << (extended ? kDynamicsHeader : kHeader) << '\n';
  for (const dcsim::ColocationScenario& s : set.scenarios) {
    write_scenario_row(out, s, s.id, extended);
  }
  return out.str();
}

dcsim::ScenarioSet parse_scenario_set_csv(const std::string& text,
                                          const std::string& origin) {
  CsvContent content;
  content.complete_final_line = text.empty() || text.back() == '\n';
  std::string line;
  for (const char c : text) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) content.lines.push_back(line);
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  if (!line.empty()) content.lines.push_back(line);
  return parse_scenario_lines(content, origin, {});
}

void append_scenario_set(const dcsim::ScenarioSet& batch, const std::string& path,
                         bool journaled) {
  // Validate the existing file (and learn where its id sequence ends) before
  // touching it — appending to a malformed file would only bury the problem.
  const dcsim::ScenarioSet existing = load_scenario_set(path);
  // The archive's header decides the row format. A tagged batch cannot be
  // appended to a stationary 4-field archive without silently dropping its
  // tags — refuse loudly instead.
  const bool extended = file_header(path) == kDynamicsHeader;
  if (!extended && any_dynamic_tagged(batch)) {
    throw ParseError(
        "append_scenario_set: " + path +
        ": batch carries dynamics tags but the archive uses the stationary "
        "4-field format — re-save the archive (save_scenario_set) before "
        "appending non-stationary batches");
  }
  std::optional<AppendJournal> journal;
  if (journaled) journal.emplace(path);
  {
    std::ofstream out(path, std::ios::app);
    ensure(static_cast<bool>(out), "append_scenario_set: cannot open file: " + path);
    std::size_t next_id = existing.scenarios.size();
    for (const dcsim::ColocationScenario& s : batch.scenarios) {
      write_scenario_row(out, s, next_id++, extended);
    }
    out.flush();
    ensure(static_cast<bool>(out), "append_scenario_set: write failed: " + path);
  }
  if (journal) journal->commit();
}

}  // namespace flare::trace
