// In-memory span recorder for the traced run. Every call the benchmark makes
// into a layer's public API is wrapped in a Span (layer, name, start, end,
// parent, request id). Spans stay in memory and are written once at exit as
// Chrome trace-event JSON; per-layer self time (span duration minus the part
// its child spans cover) is computed from the same records.
//
// When tracing is off a Span costs one relaxed atomic load and records
// nothing — the untraced run measures the end-to-end metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace flarebench {

struct SpanRecord {
  const char* layer = "";
  const char* name = "";
  long long start_ns = 0;
  long long end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share this (0 = none)
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const SpanRecord& span);
  [[nodiscard]] std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  /// Self time per layer in ms over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events, one
  /// per span, args carrying id/parent/request). `metadata_json` is embedded
  /// verbatim as the top-level "metadata" object.
  bool write_chrome_trace(const std::string& path,
                          const std::string& metadata_json) const;

  [[nodiscard]] std::size_t size() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one layer call. Nested spans on the same thread record
/// the enclosing span as their parent; `request` tags every span of one
/// serve request (inherited by nested spans when 0).
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

/// Runs `fn` inside a span and returns its wall time in ms (always timed,
/// traced only when tracing is on).
template <typename Fn>
double timed_span(const char* layer, const char* name, Fn&& fn) {
  const long long t0 = now_ns();
  {
    const Span span(layer, name);
    fn();
  }
  return ms_between(t0, now_ns());
}

}  // namespace flarebench
