#include "ml/impute.hpp"

#include <cmath>
#include <string>
#include <unordered_set>

#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace flare::ml {

std::vector<double> finite_column_medians(
    const linalg::Matrix& data, const std::vector<std::size_t>& exclude_rows) {
  ensure(!data.empty(), "finite_column_medians: empty matrix");
  std::unordered_set<std::size_t> excluded(exclude_rows.begin(),
                                           exclude_rows.end());
  std::vector<double> medians(data.cols(), 0.0);
  std::vector<double> cells;
  cells.reserve(data.rows());
  for (std::size_t c = 0; c < data.cols(); ++c) {
    cells.clear();
    for (std::size_t r = 0; r < data.rows(); ++r) {
      if (excluded.count(r) != 0) continue;
      const double v = data(r, c);
      if (std::isfinite(v)) cells.push_back(v);
    }
    if (cells.empty()) {
      // All healthy rows are blind on this metric; fall back to whatever
      // finite evidence exists anywhere, then to zero.
      for (std::size_t r = 0; r < data.rows(); ++r) {
        const double v = data(r, c);
        if (std::isfinite(v)) cells.push_back(v);
      }
    }
    medians[c] = cells.empty() ? 0.0 : stats::median(cells);
  }
  return medians;
}

void require_finite(const linalg::Matrix& data, const std::string& who) {
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      if (!std::isfinite(data(r, c))) throw_non_finite(who, r, c);
    }
  }
}

void throw_non_finite(const std::string& who, std::size_t row,
                      std::size_t column) {
  throw FaultError(who + ": non-finite value at row " + std::to_string(row) +
                   ", column " + std::to_string(column) +
                   " — impute or quarantine first");
}

}  // namespace flare::ml
