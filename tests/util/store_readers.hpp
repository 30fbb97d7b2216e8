// Whole-store readers for tests: the dense matrix and the observation
// weights of a metrics::ColumnStore, gathered through its block stream. Only
// small test stores are read this way; the library itself never
// materialises a store.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "metrics/column_store.hpp"

namespace flare::testing {

inline linalg::Matrix store_matrix(const metrics::ColumnStore& store) {
  linalg::Matrix out(store.num_rows(), store.num_metrics());
  store.for_each_block([&](std::size_t first_row, const linalg::Matrix& values,
                           std::span<const double>) {
    for (std::size_t r = 0; r < values.rows(); ++r) {
      out.set_row(first_row + r, values.row(r));
    }
  });
  return out;
}

inline std::vector<double> store_weights(const metrics::ColumnStore& store) {
  std::vector<double> out;
  out.reserve(store.num_rows());
  store.for_each_block([&](std::size_t, const linalg::Matrix&,
                           std::span<const double> weights) {
    out.insert(out.end(), weights.begin(), weights.end());
  });
  return out;
}

}  // namespace flare::testing
