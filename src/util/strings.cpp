#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/error.hpp"

namespace flare::util {

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string format_double_exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view text) {
  const std::string_view trimmed = trim(text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
    throw ParseError("malformed floating-point value: '" + std::string(text) + "'");
  }
  return value;
}

long long parse_int(std::string_view text) {
  const std::string_view trimmed = trim(text);
  long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
    throw ParseError("malformed integer value: '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace flare::util
