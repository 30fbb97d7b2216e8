// Sample covariance of a data matrix (rows = observations, cols = variables).
#pragma once

#include "linalg/matrix.hpp"

namespace flare::linalg {

/// Column means of a data matrix.
[[nodiscard]] std::vector<double> column_means(const Matrix& data);

/// Unbiased (n-1) sample covariance matrix; data must have >= 2 rows.
/// The centred cross-products come from linalg::centered_cross_products, so
/// each cov(i, j) accumulates its n terms in observation order regardless of
/// the thread count — the result is bit-identical whether `pool` is null or
/// not.
[[nodiscard]] Matrix covariance_matrix(const Matrix& data,
                                       util::ThreadPool* pool = nullptr);

}  // namespace flare::linalg
