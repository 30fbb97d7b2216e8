// Small string helpers used by trace parsing and report rendering.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace flare::util {

/// Splits `text` on `delimiter`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Formats `value` with `decimals` digits after the point (locale-independent).
[[nodiscard]] std::string format_double(double value, int decimals);

/// Shortest representation that parses back to the identical double —
/// used by trace persistence so archives round-trip bit-exactly.
[[nodiscard]] std::string format_double_exact(double value);

/// True when `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Parses a double, throwing flare::ParseError on malformed input.
[[nodiscard]] double parse_double(std::string_view text);

/// Parses a non-negative integer, throwing flare::ParseError on malformed input.
[[nodiscard]] long long parse_int(std::string_view text);

}  // namespace flare::util
