// Symmetric eigendecomposition: two solvers for the two PCA paths.
//
// PCA (FLARE §4.3) needs all eigenpairs of a ~112 × 112 covariance matrix.
// The batch fit uses the cyclic Jacobi method: exact to machine precision,
// simple, and its bits are what the golden hashes pin. The incremental fold
// re-solves a merged covariance on every ingest batch, so it uses Householder
// tridiagonalisation followed by implicit QL instead — a fixed O(n³) pass that
// does not care how far from diagonal its input is, about twice as fast as
// Jacobi on the fold's near-diagonal matrices.
#pragma once

#include "linalg/matrix.hpp"

namespace flare::linalg {

struct SymmetricEigenResult {
  /// Eigenvalues sorted in descending order.
  std::vector<double> eigenvalues;
  /// Column j of this matrix is the unit eigenvector for eigenvalues[j].
  Matrix eigenvectors;
};

/// Decomposes a symmetric matrix by cyclic Jacobi sweeps. The batch-fit PCA
/// path (and the tests' oracle): its output bits are pinned. Throws
/// std::invalid_argument if `a` is not square, empty or materially
/// non-symmetric, FaultError naming the first non-finite entry, and
/// NumericalError if the sweep limit is exceeded (practically unreachable for
/// symmetric input).
[[nodiscard]] SymmetricEigenResult symmetric_eigen(const Matrix& a);

/// Same contract via Householder tridiagonalisation and implicit QL (the
/// EISPACK tred2/tql2 pair in its JAMA form). Agrees with `symmetric_eigen` up
/// to floating-point rounding, NOT bit for bit — callers needing the pinned
/// batch-fit spectrum must use `symmetric_eigen`. Throws NumericalError when
/// an eigenvalue needs more than 30 QL iterations or the solve overflows.
[[nodiscard]] SymmetricEigenResult symmetric_eigen_ql(const Matrix& a);

}  // namespace flare::linalg
