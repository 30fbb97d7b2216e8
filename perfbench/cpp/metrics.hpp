// Result bookkeeping for one benchmark run: named metrics with units, latency
// summaries (lower decile, median, tail), and the pass/fail tally the result
// line reports.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace flarebench {

/// Lower decile, median and tail of a latency sample. The lower decile
/// (nearest rank; the minimum below ten samples) is the latency of an
/// operation that ran without interference from other tenants of the host,
/// which flips between a fast and a slow state within seconds. The tail is
/// the highest percentile
/// with at least ten samples beyond it — the 11th-largest sample, at
/// percentile 100·(n−10)/n; with fewer than eleven samples it is the maximum
/// (tail_pct = 100). Workloads take a fixed number of samples, so each
/// reports its tail at a fixed percentile.
struct Summary {
  std::size_t count = 0;
  double p10 = 0.0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured and checked.
class RunResult {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records a latency summary as `<prefix>_p10` / `_p50` / `_tail` and
  /// prints the percentile and sample count behind the tail.
  void set_summary(const std::string& prefix, const Summary& s,
                   const std::string& unit);

  /// A failed correctness check: the run reports correct=false and exits
  /// non-zero. `what` is printed to stderr.
  void fail_check(const std::string& what);
  /// Checks `ok`, failing with `what` when it does not hold.
  void check(bool ok, const std::string& what);

  void count_ops(std::size_t attempted, std::size_t failed);

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  /// The machine-readable result line (all metrics measured).
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, Metric> metrics_;
  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Milliseconds between two steady-clock readings in nanoseconds.
[[nodiscard]] inline double ms_between(long long start_ns, long long end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Monotonic clock in nanoseconds.
[[nodiscard]] long long now_ns();

/// Prints "name = value unit" for a human reader (stdout, before the result).
void print_line(const std::string& name, double value, const std::string& unit);

/// JSON string literal with escapes.
[[nodiscard]] std::string json_string(const std::string& s);
/// All significant digits of a double.
[[nodiscard]] std::string json_number(double v);

}  // namespace flarebench
