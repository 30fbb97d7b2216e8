#include "trace/csv.hpp"

#include <cmath>
#include <fstream>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::trace {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void write_csv_row(std::ostream& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out << ',';
    out << csv_escape(fields[i]);
  }
  out << '\n';
}

std::vector<std::string> parse_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      if (!current.empty()) {
        throw ParseError("parse_csv_row: quote in the middle of a bare field");
      }
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  if (in_quotes) throw ParseError("parse_csv_row: unterminated quoted field");
  fields.push_back(std::move(current));
  return fields;
}

std::vector<std::string> parse_csv_row(const std::string& line,
                                       const std::string& path,
                                       std::size_t line_number) {
  try {
    return parse_csv_row(line);
  } catch (const ParseError& e) {
    throw ParseError(path + ":" + std::to_string(line_number) + ": " +
                     e.what() + " — offending line '" + line + "'");
  }
}

double parse_csv_double(const std::string& token, const std::string& path,
                        std::size_t line_number) {
  try {
    return util::parse_double(token);
  } catch (const ParseError&) {
    throw ParseError(path + ":" + std::to_string(line_number) +
                     ": not a number — offending token '" + token + "'");
  }
}

long long parse_csv_int(const std::string& token, const std::string& path,
                        std::size_t line_number) {
  try {
    return util::parse_int(token);
  } catch (const ParseError&) {
    throw ParseError(path + ":" + std::to_string(line_number) +
                     ": not an integer — offending token '" + token + "'");
  }
}

double parse_csv_weight(const std::string& token, const std::string& path,
                        std::size_t line_number) {
  const double weight = parse_csv_double(token, path, line_number);
  if (!std::isfinite(weight) || weight < 0.0) {
    throw ParseError(path + ":" + std::to_string(line_number) +
                     ": weight must be finite and non-negative — offending "
                     "token '" + token + "'");
  }
  return weight;
}

CsvContent read_csv_content(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("read_csv_content: cannot open file: " + path);
  CsvContent content;
  std::string line;
  while (std::getline(in, line)) {
    // getline strips '\n' but reports eof only when the stream ran out
    // *before* finding one — i.e. the final line had no terminator.
    content.complete_final_line = !in.eof();
    if (!line.empty() && line != "\r") content.lines.push_back(line);
  }
  return content;
}

}  // namespace flare::trace
