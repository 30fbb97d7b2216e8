#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace flare::linalg {
namespace {

/// Jacobi sweep limit and convergence target (relative to the Frobenius
/// scale); the final acceptance is looser so a converged spectrum that stalls
/// a hair above the target still passes.
constexpr int kMaxSweeps = 64;
constexpr double kTolerance = 1e-12;
constexpr double kAcceptance = 1e-8;
/// Pivots at or below this magnitude are treated as already annihilated.
constexpr double kZeroPivot = 1e-300;
/// QL iterations allowed per eigenvalue; tql2 typically needs 1–3.
constexpr int kMaxQlIterations = 30;

/// Sum of squares of off-diagonal entries (convergence measure).
double off_diagonal_norm(const Matrix& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i != j) sum += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(sum);
}

/// Validates shape, finiteness and symmetry, and returns the Frobenius-based
/// scale the Jacobi tolerances are relative to. `who` prefixes the messages.
double validate_symmetric(const Matrix& input, const std::string& who) {
  ensure(input.rows() == input.cols(), who + ": matrix must be square");
  const std::size_t n = input.rows();
  ensure(n > 0, who + ": matrix must be non-empty");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!std::isfinite(input(i, j))) {
        throw FaultError(who + ": non-finite entry at (" + std::to_string(i) +
                         ", " + std::to_string(j) + ")");
      }
    }
  }
  const double scale = std::max(input.frobenius_norm(), 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::abs(input(i, j) - input(j, i)) > 1e-8 * scale) {
        throw std::invalid_argument(who + ": matrix is not symmetric");
      }
    }
  }
  return scale;
}

/// Householder reduction of the symmetric `w` to tridiagonal form (tred2).
/// On return `d` holds the diagonal, `e[1..n-1]` the subdiagonal and row j of
/// `w` the j-th column of the orthogonal transform. JAMA's V is stored
/// transposed, so every inner loop walks a contiguous row.
void tridiagonalize(Matrix& w, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = w.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (std::size_t i = n - 1; i > 0; --i) {
    // Scale to avoid under/overflow.
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      // Householder vector.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);

      // Similarity transformation of the remaining leading block.
      for (std::size_t j = 0; j < i; ++j) {
        const std::span<const double> wj = std::as_const(w).row(j);
        f = d[j];
        w(i, j) = f;
        g = e[j] + wj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        const std::span<double> wj = w.row(j);
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) wj[k] -= f * e[k] + g * d[k];
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    w(i, n - 1) = w(i, i);
    w(i, i) = 1.0;
    const std::span<double> next = w.row(i + 1);
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = next[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        const std::span<double> wj = w.row(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += next[k] * wj[k];
        for (std::size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) next[k] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = w(j, n - 1);
    w(j, n - 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (d, e) from `tridiagonalize` (tql2).
/// Leaves the eigenvalues in `d` (unsorted) and eigenvector j in row j of `w`;
/// each Givens rotation updates two contiguous rows.
void ql_iterate(Matrix& w, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = w.rows();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::ldexp(1.0, -52);
  for (std::size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element; e[n-1] == 0 ends the scan. A
    // NaN never counts as negligible, so a solve whose reduction overflowed
    // iterates into the cap instead of stopping on garbage.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    const auto negligible = [&](double x) { return std::abs(x) <= eps * tst1; };
    std::size_t m = l;
    while (m < n - 1 && !negligible(e[m])) ++m;

    // m == l: d[l] is already an eigenvalue; otherwise iterate.
    for (int iter = 0; m > l && !negligible(e[l]); ++iter) {
      ensure_numeric(iter < kMaxQlIterations,
                     "symmetric_eigen_ql: QL iteration did not converge");
      // Implicit shift.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      f += h;

      // Implicit QL transformation.
      p = d[m];
      double c = 1.0;
      double c2 = c;
      double c3 = c;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);

        // Accumulate the rotation into eigenvector rows i and i+1.
        const std::span<double> wi = w.row(i);
        const std::span<double> wn = w.row(i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double next = wn[k];
          wn[k] = s * wi[k] + c * next;
          wi[k] = c * wi[k] - s * next;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

}  // namespace

SymmetricEigenResult symmetric_eigen(const Matrix& input) {
  const double scale = validate_symmetric(input, "symmetric_eigen");
  const std::size_t n = input.rows();

  Matrix a = input;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_norm(a) <= kTolerance * scale) break;
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::abs(apq) <= kZeroPivot) continue;
        rotated = true;
        const double app = a(p, p);
        const double aqq = a(q, q);
        // Stable rotation computation (Golub & Van Loan §8.5).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // A <- J^T A J applied in place.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        // Accumulate eigenvectors: V <- V J.
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    // Every remaining pivot is zero: further sweeps cannot change anything.
    if (!rotated) break;
  }
  ensure_numeric(off_diagonal_norm(a) <= kAcceptance * scale,
                 "symmetric_eigen: Jacobi sweeps did not converge");

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return a(x, x) > a(y, y); });
  SymmetricEigenResult result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = a(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) {
      result.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return result;
}

SymmetricEigenResult symmetric_eigen_ql(const Matrix& input) {
  validate_symmetric(input, "symmetric_eigen_ql");
  const std::size_t n = input.rows();

  Matrix w = input;
  std::vector<double> d(n);
  std::vector<double> e(n);
  tridiagonalize(w, d, e);
  ql_iterate(w, d, e);
  const auto finite = [](double x) { return std::isfinite(x); };
  ensure_numeric(std::all_of(d.begin(), d.end(), finite) &&
                     std::all_of(w.data().begin(), w.data().end(), finite),
                 "symmetric_eigen_ql: the solve overflowed");

  // Un-transpose while sorting by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  SymmetricEigenResult result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = d[order[j]];
    const std::span<const double> vector = w.row(order[j]);
    for (std::size_t i = 0; i < n; ++i) result.eigenvectors(i, j) = vector[i];
  }
  return result;
}

}  // namespace flare::linalg
