#include "stats/summary.hpp"

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace flare::stats {

BoxSummary box_summary(std::span<const double> values) {
  ensure(!values.empty(), "box_summary: empty input");
  BoxSummary s;
  s.min = min_value(values);
  s.q1 = percentile(values, 0.25);
  s.median = percentile(values, 0.5);
  s.q3 = percentile(values, 0.75);
  s.max = max_value(values);
  s.mean = mean(values);
  return s;
}

}  // namespace flare::stats
