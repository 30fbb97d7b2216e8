// Whole-store readers for tests: the dense matrix and the observation
// weights of a metrics::ColumnStore, gathered through its block stream. Only
// small test stores are read this way; the library itself never
// materialises a store.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "linalg/matrix.hpp"
#include "metrics/column_store.hpp"

namespace flare::testing {

inline std::vector<std::size_t> all_store_columns(
    const metrics::ColumnStore& store) {
  std::vector<std::size_t> columns(store.num_metrics());
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  return columns;
}

inline linalg::Matrix store_matrix(const metrics::ColumnStore& store) {
  linalg::Matrix out(store.num_rows(), store.num_metrics());
  store.for_each_block(all_store_columns(store),
                       [&](const metrics::BlockView& block) {
                         for (std::size_t c = 0; c < block.num_columns; ++c) {
                           const auto column = block.column(c);
                           for (std::size_t r = 0; r < block.rows; ++r) {
                             out(block.first_row + r, c) = column[r];
                           }
                         }
                       });
  return out;
}

inline std::vector<double> store_weights(const metrics::ColumnStore& store) {
  std::vector<double> out;
  out.reserve(store.num_rows());
  store.for_each_block({}, [&](const metrics::BlockView& block) {
    out.insert(out.end(), block.weights.begin(), block.weights.end());
  });
  return out;
}

}  // namespace flare::testing
