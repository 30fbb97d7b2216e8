#include "metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace flarebench {

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const auto decile = static_cast<std::size_t>(
      std::ceil(0.1 * static_cast<double>(samples.size())));
  s.p10 = samples[std::max<std::size_t>(decile, 1) - 1];
  s.p50 = median(samples);
  s.tail = samples.back();
  s.tail_pct = 100.0;
  if (samples.size() > 10) {
    s.tail = samples[samples.size() - 11];
    s.tail_pct = 100.0 * static_cast<double>(samples.size() - 10) /
                 static_cast<double>(samples.size());
  }
  return s;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_line(const std::string& name, double value, const std::string& unit) {
  std::printf("  %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) fail_check("metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit};
}

void RunResult::set_summary(const std::string& prefix, const Summary& s,
                            const std::string& unit) {
  set(prefix + "_p10", s.p10, unit);
  set(prefix + "_p50", s.p50, unit);
  set(prefix + "_tail", s.tail, unit);
  std::printf("  %-34s p%g of %zu samples\n", (prefix + "_tail").c_str(),
              s.tail_pct, s.count);
}

void RunResult::fail_check(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "flarebench: check failed: %s\n", what.c_str());
}

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) fail_check(what);
}

void RunResult::count_ops(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string RunResult::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace flarebench
