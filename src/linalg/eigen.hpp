// Symmetric eigendecomposition: three entry points for the PCA paths.
//
// PCA (FLARE §4.3) diagonalises a ~112 × 112 covariance matrix.
//   symmetric_eigen          cyclic Jacobi. The batch fit (Pca::fit and
//                            Pca::fit_from_covariance): exact to machine
//                            precision, and its bits are what the golden
//                            hashes pin.
//   symmetric_eigen_ql       Householder tridiagonalisation + implicit QL, all
//                            eigenpairs in one fixed O(n³) pass. Materialising
//                            a tracked basis (TrackedPca::materialize), which
//                            only a splice refit needs.
//   symmetric_eigen_leading  the same reduction and QL recurrences without
//                            accumulating vectors, so every eigenvalue comes
//                            out the same bits as symmetric_eigen_ql's, plus
//                            the k leading eigenvectors by inverse iteration
//                            on the tridiagonal. The per-batch tracked-basis
//                            fold (TrackedPca::fold, k = kept components) and
//                            its drift solve (k = 0).
#pragma once

#include <span>
#include <vector>

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

/// Every eigenvalue of `a`, descending and bit-identical to
/// symmetric_eigen_ql's, with only the k leading eigenvectors (an n × k
/// `eigenvectors`; k == 0 gives the spectrum alone). The vectors come from
/// inverse iteration on the Householder tridiagonal — LU with partial
/// pivoting, a fixed pseudo-random start, at most 5 solves each,
/// re-orthogonalised within eigenvalue clusters — mapped back through the
/// stored reflectors: about two thirds of the full solve's time at n = 89,
/// k = 17. Where λ_k = λ_{k+1} the leading subspace is not unique and any
/// orthonormal basis of eigenvectors may come back. Same validation as
/// symmetric_eigen_ql; additionally throws std::invalid_argument when k > n
/// and NumericalError when inverse iteration does not converge.
[[nodiscard]] SymmetricEigenResult symmetric_eigen_leading(const Matrix& a,
                                                           std::size_t k);

namespace detail {

/// The vector half of symmetric_eigen_leading, exposed for its tests:
/// eigenvectors of the symmetric tridiagonal T (diagonal `diag`, n − 1
/// off-diagonal entries `off`) for the descending eigenvalues `lambda`, by
/// inverse iteration (LAPACK dstein). Row j of the result is the unit
/// eigenvector for lambda[j], largest entry positive. T is first scaled by a
/// power of two to a 1-norm below 1, so every tolerance is relative. Each
/// vector starts from the next stretch of a fixed pseudo-random stream; a
/// shift within 10ε·‖T‖₁ of its predecessor's is nudged that far off it, so
/// each shift factors a distinct matrix; every iterate is re-orthogonalised
/// within its cluster (eigenvalues closer than 1e-3·‖T‖₁); and a converged
/// vector gets one more pass against every earlier vector, which makes
/// vectors of nearby but separated eigenvalues orthogonal to rounding rather
/// than to rounding / gap. Iteration stops two solves after the growth test first
/// passes; a vector that has not passed after 5 solves throws
/// NumericalError, as does an overflowing T.
[[nodiscard]] Matrix tridiagonal_eigenvectors(std::vector<double> diag,
                                              std::vector<double> off,
                                              std::span<const double> lambda);

}  // namespace detail

}  // namespace flare::linalg
