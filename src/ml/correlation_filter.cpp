#include "ml/correlation_filter.hpp"

#include <cmath>

#include "stats/correlation.hpp"
#include "util/error.hpp"

namespace flare::ml {

CorrelationFilter::CorrelationFilter(double threshold) : threshold_(threshold) {
  ensure(threshold > 0.0 && threshold <= 1.0,
         "CorrelationFilter: threshold must be in (0, 1]");
}

CorrelationFilterResult CorrelationFilter::fit(const linalg::Matrix& data) const {
  ensure(data.rows() >= 2, "CorrelationFilter::fit: need at least two rows");
  CorrelationFilterResult result;
  std::vector<std::vector<double>> kept_data;  // cache of kept column vectors

  for (std::size_t c = 0; c < data.cols(); ++c) {
    const std::vector<double> candidate = data.column(c);
    bool duplicate = false;
    for (std::size_t k = 0; k < result.kept_columns.size(); ++k) {
      const double r = stats::pearson(kept_data[k], candidate);
      if (std::abs(r) >= threshold_) {
        result.drops.push_back(
            CorrelationDrop{c, result.kept_columns[k], r});
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      result.kept_columns.push_back(c);
      kept_data.push_back(candidate);
    }
  }
  return result;
}

CorrelationFilterResult CorrelationFilter::fit_from_correlation(
    const linalg::Matrix& corr) const {
  ensure(corr.rows() == corr.cols(),
         "CorrelationFilter::fit_from_correlation: matrix must be square");
  ensure(corr.rows() >= 1,
         "CorrelationFilter::fit_from_correlation: empty matrix");
  CorrelationFilterResult result;
  for (std::size_t c = 0; c < corr.cols(); ++c) {
    bool duplicate = false;
    for (const std::size_t k : result.kept_columns) {
      const double r = corr(k, c);
      if (std::abs(r) >= threshold_) {
        result.drops.push_back(CorrelationDrop{c, k, r});
        duplicate = true;
        break;
      }
    }
    if (!duplicate) result.kept_columns.push_back(c);
  }
  return result;
}

}  // namespace flare::ml
