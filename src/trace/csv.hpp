// Minimal RFC-4180-ish CSV reading/writing for trace persistence.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace flare::trace {

/// Quotes a field when it contains separators, quotes or newlines.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Writes one CSV record (with trailing newline).
void write_csv_row(std::ostream& out, const std::vector<std::string>& fields);

/// Parses one CSV record (handles quoted fields with embedded commas/quotes).
/// Throws flare::ParseError on malformed quoting.
[[nodiscard]] std::vector<std::string> parse_csv_row(const std::string& line);

/// Position-aware variant: malformed quoting raises a ParseError carrying
/// `path`, the 1-based `line_number` and the offending line.
[[nodiscard]] std::vector<std::string> parse_csv_row(const std::string& line,
                                                     const std::string& path,
                                                     std::size_t line_number);

/// Numeric-token parsing with provenance: wraps util::parse_double /
/// util::parse_int so a bad token raises a ParseError naming the file, the
/// 1-based line number and the token itself.
[[nodiscard]] double parse_csv_double(const std::string& token,
                                      const std::string& path,
                                      std::size_t line_number);
[[nodiscard]] long long parse_csv_int(const std::string& token,
                                      const std::string& path,
                                      std::size_t line_number);
/// An observation weight: a number that is finite and non-negative.
[[nodiscard]] double parse_csv_weight(const std::string& token,
                                      const std::string& path,
                                      std::size_t line_number);

/// A file's non-empty lines plus whether the final line was newline-
/// terminated. Every writer in trace/ terminates the last record, so an
/// unterminated final line is the signature of a torn append — loaders must
/// reject it instead of silently parsing a half-written row.
struct CsvContent {
  std::vector<std::string> lines;
  bool complete_final_line = true;
};

/// Reads every non-empty line of a file, with torn-tail detection; throws
/// flare::ParseError when the file cannot be opened.
[[nodiscard]] CsvContent read_csv_content(const std::string& path);

}  // namespace flare::trace
