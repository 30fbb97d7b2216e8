#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
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
/// Inverse-iteration solves allowed per eigenvector, and the extra solves run
/// once the growth test first passes (LAPACK dstein's MAXITS and EXTRA).
constexpr int kMaxInverseIterations = 5;
constexpr int kExtraInverseIterations = 2;

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

/// Householder reduction of the symmetric `w` to tridiagonal form T (the
/// first half of tred2). On return T's diagonal sits on the diagonal of `w`
/// and its subdiagonal in e[1..n-1] (e[i] couples rows i-1 and i; e[0] = 0).
/// Row i of `w`, entries [0, i), holds reflector u_i and d[i] its scale h_i:
/// with H_i = I − u_i·u_iᵀ/h_i (the identity when h_i == 0) the transform is
/// Q = H_{n-1}⋯H_1 and A = Q·T·Qᵀ. JAMA's V is stored transposed, so every
/// inner loop walks a contiguous row.
void householder_reduce(Matrix& w, std::vector<double>& d, std::vector<double>& e) {
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
  e[0] = 0.0;
}

/// Second half of tred2: multiplies the reflectors householder_reduce stored
/// out into Q, leaving row j of `w` the j-th column of Q and T's diagonal in
/// `d`.
void accumulate_reflectors(Matrix& w, std::vector<double>& d) {
  const std::size_t n = w.rows();
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
}

/// Implicit-shift QL on the tridiagonal (d, e) from householder_reduce
/// (tql2). Leaves the eigenvalues in `d`, unsorted, and hands each Givens
/// rotation — (i, c, s) mixing rows i and i+1 of the eigenvector matrix — to
/// `rotate`. The recurrences never read what `rotate` does, so the
/// eigenvalues come out the same bits with or without eigenvectors.
template <typename Rotate>
void ql_iterate(std::vector<double>& d, std::vector<double>& e,
                const std::string& who, Rotate rotate) {
  const std::size_t n = d.size();
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
                     who + ": QL iteration did not converge");
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
        rotate(i, c, s);
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

/// Indices of `d` ordered by descending value.
std::vector<std::size_t> descending_order(const std::vector<double>& d) {
  std::vector<std::size_t> order(d.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  return order;
}

bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double x) { return std::isfinite(x); });
}

/// T − σI for a symmetric tridiagonal T, factored by Gaussian elimination
/// with partial pivoting (LAPACK dlagtf): U's diagonal `u0` and its two
/// superdiagonals `u1`, `u2`, L's multipliers and which steps swapped rows.
/// Every array is padded to n entries so no step needs an edge case;
/// factor_shifted refills one in place, so the arrays are allocated once per
/// solve, not once per eigenvector.
struct ShiftedLu {
  std::vector<double> u0;
  std::vector<double> u1;
  std::vector<double> u2;
  std::vector<double> mult;
  std::vector<unsigned char> swapped;
  /// Nudge for a pivot too small to divide by: eps·max|U| (eps if U = 0).
  double tiny = 0.0;
};

void factor_shifted(std::span<const double> diag, std::span<const double> off,
                    double sigma, ShiftedLu& lu) {
  const std::size_t n = diag.size();
  lu.u0.resize(n);
  for (std::size_t i = 0; i < n; ++i) lu.u0[i] = diag[i] - sigma;
  lu.u1.assign(n, 0.0);
  std::copy(off.begin(), off.end(), lu.u1.begin());
  lu.u2.assign(n, 0.0);
  lu.mult.assign(n, 0.0);
  lu.swapped.assign(n, 0);

  // Pivot on whichever of rows k and k+1 is relatively larger in column k.
  double scale1 = std::abs(lu.u0[0]) + std::abs(lu.u1[0]);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double below = off[k];
    const double scale2 =
        std::abs(below) + std::abs(lu.u0[k + 1]) + std::abs(lu.u1[k + 1]);
    const double piv1 = lu.u0[k] == 0.0 ? 0.0 : std::abs(lu.u0[k]) / scale1;
    if (below == 0.0) {
      scale1 = scale2;
    } else if (std::abs(below) / scale2 <= piv1) {
      scale1 = scale2;
      lu.mult[k] = below / lu.u0[k];
      lu.u0[k + 1] -= lu.mult[k] * lu.u1[k];
    } else {
      const double m = lu.u0[k] / below;
      lu.swapped[k] = 1;
      lu.mult[k] = m;
      lu.u0[k] = below;
      const double temp = lu.u0[k + 1];
      lu.u0[k + 1] = lu.u1[k] - m * temp;
      if (k + 2 < n) {
        lu.u2[k] = lu.u1[k + 1];
        lu.u1[k + 1] = -m * lu.u2[k];
      }
      lu.u1[k] = temp;
    }
  }
  double largest = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    largest = std::max({largest, std::abs(lu.u0[i]), std::abs(lu.u1[i]),
                        std::abs(lu.u2[i])});
  }
  const double eps = std::numeric_limits<double>::epsilon();
  lu.tiny = largest > 0.0 ? eps * largest : eps;
}

/// Solves (T − σI)·x = y in place from `lu` (LAPACK dlagts, job −1): a pivot
/// too small to divide `y` by without overflow is nudged by ±tiny, the nudge
/// doubling until the quotient is safe.
void solve_shifted(const ShiftedLu& lu, std::span<double> y) {
  const std::size_t n = y.size();
  for (std::size_t k = 1; k < n; ++k) {
    if (lu.swapped[k - 1] == 0) {
      y[k] -= lu.mult[k - 1] * y[k - 1];
    } else {
      const double temp = y[k - 1];
      y[k - 1] = y[k];
      y[k] = temp - lu.mult[k - 1] * y[k];
    }
  }
  constexpr double kSafeMin = std::numeric_limits<double>::min();
  constexpr double kBigNum = 1.0 / kSafeMin;
  for (std::size_t k = n; k-- > 0;) {
    double temp = y[k];
    if (k + 1 < n) temp -= lu.u1[k] * y[k + 1];
    if (k + 2 < n) temp -= lu.u2[k] * y[k + 2];
    double pivot = lu.u0[k];
    double nudge = std::copysign(lu.tiny, pivot);
    while (std::abs(pivot) < 1.0) {
      const double size = std::abs(pivot);
      if (size < kSafeMin) {
        if (size != 0.0 && std::abs(temp) * kSafeMin <= size) {
          temp *= kBigNum;
          pivot *= kBigNum;
          break;
        }
      } else if (std::abs(temp) <= size * kBigNum) {
        break;
      }
      pivot += nudge;
      nudge *= 2.0;
    }
    y[k] = temp / pivot;
  }
}

/// Next entry of the fixed start-vector stream: splitmix64, mapped to
/// [-1, 1).
double next_start_entry(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
}

double max_abs(std::span<const double> x) {
  double peak = 0.0;
  for (const double v : x) peak = std::max(peak, std::abs(v));
  return peak;
}

/// x ← x − Σ (z_i·x)·z_i over rows [first, last) of `z` (modified
/// Gram–Schmidt).
void orthogonalize(std::span<double> x, const Matrix& z, std::size_t first,
                   std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const std::span<const double> zi = z.row(i);
    double c = 0.0;
    for (std::size_t t = 0; t < x.size(); ++t) c += zi[t] * x[t];
    for (std::size_t t = 0; t < x.size(); ++t) x[t] -= c * zi[t];
  }
}

/// x ← Q·x for every column x of `v` (n × k), where Q = H_{n-1}⋯H_1 is the
/// transform householder_reduce left in `w` (reflectors) and `h` (their
/// scales): maps eigenvectors of T to eigenvectors of A in 2·n² flops each.
/// Row t of `v` holds coordinate t of every vector, so the inner loops run
/// across the k vectors at once.
void apply_reflectors(const Matrix& w, const std::vector<double>& h, Matrix& v) {
  const std::size_t n = w.rows();
  const std::size_t k = v.cols();
  std::vector<double> g(k);
  for (std::size_t i = 1; i < n; ++i) {
    if (h[i] == 0.0) continue;
    const std::span<const double> u = w.row(i);
    std::fill(g.begin(), g.end(), 0.0);
    for (std::size_t t = 0; t < i; ++t) {
      const double ut = u[t];
      const std::span<const double> vt = std::as_const(v).row(t);
      for (std::size_t r = 0; r < k; ++r) g[r] += ut * vt[r];
    }
    for (std::size_t t = 0; t < i; ++t) {
      const double scaled = u[t] / h[i];
      const std::span<double> vt = v.row(t);
      for (std::size_t r = 0; r < k; ++r) vt[r] -= g[r] * scaled;
    }
  }
}

}  // namespace

namespace detail {

Matrix tridiagonal_eigenvectors(std::vector<double> diag, std::vector<double> off,
                                std::span<const double> lambda) {
  const std::string who = "symmetric_eigen_leading";
  const std::size_t n = diag.size();
  ensure(n > 0 && off.size() + 1 == n && lambda.size() <= n,
         who + ": tridiagonal shape mismatch");
  Matrix z(lambda.size(), n);
  if (lambda.empty()) return z;

  // Scale T by a power of two to a 1-norm in [0.5, 1): exact, and it makes
  // every tolerance below relative to ‖T‖.
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = std::abs(diag[i]);
    if (i > 0) row += std::abs(off[i - 1]);
    if (i + 1 < n) row += std::abs(off[i]);
    norm = std::max(norm, row);
  }
  ensure_numeric(std::isfinite(norm), who + ": the solve overflowed");
  int exponent = 0;
  if (norm > 0.0) (void)std::frexp(norm, &exponent);
  for (double& v : diag) v = std::ldexp(v, -exponent);
  for (double& v : off) v = std::ldexp(v, -exponent);

  const double eps = std::numeric_limits<double>::epsilon();
  const double growth = std::sqrt(0.1 / static_cast<double>(n));
  const double scaled_norm = std::ldexp(norm, -exponent);
  const double cluster_gap = 1e-3 * scaled_norm;
  // Shifts closer than this to the previous one are nudged apart. dstein
  // scales it by |σ|, which vanishes for eigenvalues at rounding level
  // below ‖T‖ (rank-deficient or graded input): every such shift would then
  // factor the same near-singular matrix, the solve would amplify the whole
  // near-null space by up to 1/ε², and re-orthogonalisation could not
  // recover the new direction.
  const double separation = 10.0 * eps * scaled_norm;
  std::uint64_t stream = 0;
  std::vector<double> x(n);
  ShiftedLu lu;
  double shift = 0.0;
  std::size_t cluster = 0;  // first vector of the current cluster
  for (std::size_t j = 0; j < lambda.size(); ++j) {
    double sigma = std::ldexp(lambda[j], -exponent);
    if (j > 0 && shift - sigma < separation) sigma = shift - separation;
    if (j > 0 && shift - sigma > cluster_gap) cluster = j;
    shift = sigma;
    factor_shifted(diag, off, sigma, lu);

    for (double& v : x) v = next_start_entry(stream);
    for (int iteration = 0, passed = 0;; ++iteration) {
      ensure_numeric(iteration < kMaxInverseIterations,
                     who + ": inverse iteration did not converge");
      // Scale the right-hand side so an accurate shift solves to about n.
      const double scale =
          static_cast<double>(n) * std::max(eps, std::abs(lu.u0[n - 1])) / max_abs(x);
      for (double& v : x) v *= scale;
      solve_shifted(lu, x);
      orthogonalize(x, z, cluster, j);
      if (max_abs(x) >= growth && ++passed > kExtraInverseIterations) break;
    }
    // One pass against every earlier vector: the second for the cluster
    // (twice is enough), and it takes the rounding/gap overlap off the
    // separated ones.
    orthogonalize(x, z, 0, j);

    // Normalise by the largest entry first so squaring cannot overflow, and
    // make that entry positive.
    std::size_t peak = 0;
    for (std::size_t t = 1; t < n; ++t) {
      if (std::abs(x[t]) > std::abs(x[peak])) peak = t;
    }
    const double top = x[peak];
    double norm_sq = 0.0;
    for (double& v : x) {
      v /= top;
      norm_sq += v * v;
    }
    const double unit = 1.0 / std::sqrt(norm_sq);
    const std::span<double> row = z.row(j);
    for (std::size_t t = 0; t < n; ++t) row[t] = x[t] * unit;
  }
  return z;
}

}  // namespace detail

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
  const std::string who = "symmetric_eigen_ql";
  validate_symmetric(input, who);
  const std::size_t n = input.rows();

  Matrix w = input;
  std::vector<double> d(n);
  std::vector<double> e(n);
  householder_reduce(w, d, e);
  accumulate_reflectors(w, d);
  // Each Givens rotation updates two contiguous eigenvector rows.
  ql_iterate(d, e, who, [&w](std::size_t i, double c, double s) {
    const std::span<double> wi = w.row(i);
    const std::span<double> wn = w.row(i + 1);
    for (std::size_t k = 0; k < wi.size(); ++k) {
      const double next = wn[k];
      wn[k] = s * wi[k] + c * next;
      wi[k] = c * wi[k] - s * next;
    }
  });
  ensure_numeric(all_finite(d) && all_finite(w.data()),
                 who + ": the solve overflowed");

  // Un-transpose while sorting by descending eigenvalue.
  const std::vector<std::size_t> order = descending_order(d);
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

SymmetricEigenResult symmetric_eigen_leading(const Matrix& input, std::size_t k) {
  const std::string who = "symmetric_eigen_leading";
  validate_symmetric(input, who);
  const std::size_t n = input.rows();
  ensure(k <= n, who + ": k exceeds the matrix order");

  // The reduction and QL recurrences of symmetric_eigen_ql, without the
  // accumulation or the rotations: the same eigenvalue bits.
  Matrix w = input;
  std::vector<double> h(n);
  std::vector<double> e(n);
  householder_reduce(w, h, e);
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = w(i, i);
  std::vector<double> off(e.begin() + 1, e.end());
  std::vector<double> d = diag;
  ql_iterate(d, e, who, [](std::size_t, double, double) {});
  ensure_numeric(all_finite(d), who + ": the solve overflowed");

  SymmetricEigenResult result;
  result.eigenvalues.resize(n);
  const std::vector<std::size_t> order = descending_order(d);
  for (std::size_t j = 0; j < n; ++j) result.eigenvalues[j] = d[order[j]];

  // The k leading eigenvectors: inverse iteration on T, then back through
  // the reflectors.
  result.eigenvectors =
      detail::tridiagonal_eigenvectors(
          std::move(diag), std::move(off),
          std::span<const double>(result.eigenvalues).first(k))
          .transposed();
  apply_reflectors(w, h, result.eigenvectors);
  ensure_numeric(all_finite(result.eigenvectors.data()),
                 who + ": the solve overflowed");
  return result;
}

}  // namespace flare::linalg
