// Per-metric median imputation for partially-faulty profiled rows.
//
// The fault-tolerant profiler (core/profiler.hpp) leaves NaN in cells where
// no valid reading survived the retries. Before those rows can enter the
// standardize → PCA → cluster chain they must be filled with something
// neutral; the per-metric median over the healthy population is robust to
// the very outliers that caused the gaps (the same choice the KPI-clustering
// literature makes for missing monitoring data).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace flare::ml {

/// Per-column medians over the *finite* cells of `data`, skipping the listed
/// rows entirely (quarantined rows must not influence the fill values).
/// Columns with no usable finite cell fall back to the median over all rows'
/// finite cells, and to 0.0 if the column is non-finite everywhere.
[[nodiscard]] std::vector<double> finite_column_medians(
    const linalg::Matrix& data,
    const std::vector<std::size_t>& exclude_rows = {});

/// Throws FaultError naming the first non-finite cell of `data` by row and
/// column, prefixed with `who`. Stages past imputation call it: a non-finite
/// cell there is a caller bug that would silently poison every result.
void require_finite(const linalg::Matrix& data, const std::string& who);

/// The FaultError require_finite throws for the cell at (`row`, `column`),
/// for callers that find the cell without a Matrix (the out-of-core pass).
[[noreturn]] void throw_non_finite(const std::string& who, std::size_t row,
                                   std::size_t column);

}  // namespace flare::ml
