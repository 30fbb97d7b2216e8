// Distribution summaries used when reporting sampling-trial spreads
// (paper Fig. 12a shows violin + box plots of 1000 sampling trials).
#pragma once

#include <span>

namespace flare::stats {

/// Classic five-number summary plus mean, for box plots.
struct BoxSummary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;

  [[nodiscard]] double iqr() const { return q3 - q1; }
};

[[nodiscard]] BoxSummary box_summary(std::span<const double> values);

}  // namespace flare::stats
