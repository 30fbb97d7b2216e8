// Oracles for the tridiagonal eigensolvers over every matrix family the PCA
// paths can hand them, n from 1 to 130, on the seeded property harness:
// symmetric_eigen_ql against the cyclic Jacobi symmetric_eigen, and
// symmetric_eigen_leading against both.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "linalg/eigen.hpp"
#include "stats/rng.hpp"
#include "tests/util/matrix_matchers.hpp"
#include "tests/util/property.hpp"

namespace flare::linalg {
namespace {

Matrix random_symmetric(std::size_t n, stats::Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.normal();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

/// Q·diag(values)·Qᵀ for a random orthogonal Q.
Matrix with_spectrum(const std::vector<double>& values, stats::Rng& rng) {
  const std::size_t n = values.size();
  const Matrix q = symmetric_eigen(random_symmetric(n, rng)).eigenvectors;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += q(i, k) * values[k] * q(j, k);
      m(i, j) = sum;
      m(j, i) = sum;
    }
  }
  return m;
}

constexpr int kFamilies = 9;

/// One matrix of family `family` (see the switch).
Matrix make_instance(int family, std::size_t n, stats::Rng& rng) {
  Matrix m;
  switch (family) {
    case 0:  // dense random
      m = random_symmetric(n, rng);
      break;
    case 1: {  // near-diagonal, like the tracked-basis fold's merged covariance
      m = random_symmetric(n, rng);
      const double bump = 0.1 * rng.uniform();
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          m(i, j) = i == j ? static_cast<double>(n - i) : bump * m(i, j);
        }
      }
      break;
    }
    case 2: {  // already diagonal, unsorted, with exact repeats
      m = Matrix(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = static_cast<double>(rng.uniform_int(0, 9)) - 4.5;
      }
      break;
    }
    case 3: {  // identity and repeated-eigenvalue blocks
      std::vector<double> values(n);
      double level = rng.normal();
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.uniform() < 0.2) level = rng.normal();
        values[i] = level;
      }
      if (rng.uniform() < 0.3) {
        m = Matrix(n, n);  // values[0]·I, signed zeros included
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            m(i, j) = (i == j ? 1.0 : 0.0) * values[0];
          }
        }
      } else {
        m = with_spectrum(values, rng);
      }
      break;
    }
    case 4:  // zero
      m = Matrix(n, n);
      break;
    case 5: {  // rank-deficient PSD with a tail of near-zero eigenvalues
      const std::size_t rank = rng.uniform_int(0, n);
      std::vector<double> values(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        values[i] = i < rank ? std::exp(rng.normal())
                             : (rng.uniform() < 0.5 ? 0.0 : 1e-14 * rng.uniform());
      }
      m = with_spectrum(values, rng);
      break;
    }
    case 6: {  // graded: entries spanning 1e-150 to 1e150
      m = random_symmetric(n, rng);
      std::vector<double> grade(n);
      for (double& g : grade) g = std::pow(10.0, rng.uniform(-75.0, 75.0));
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) m(i, j) *= grade[i] * grade[j];
      }
      break;
    }
    default: {  // 7, 8: a random matrix scaled to 2^±(400..498) ≈ 1e±(120..150)
      m = random_symmetric(n, rng);
      const int magnitude = static_cast<int>(rng.uniform_int(400, 498));
      const int exponent = family == 7 ? magnitude : -magnitude;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) m(i, j) = std::ldexp(m(i, j), exponent);
      }
      break;
    }
  }
  return m;
}

/// The cold Jacobi solve of `m`, run on `m` scaled by a power of two to
/// ‖M‖ ≈ 1 and scaled back. Jacobi's convergence target is absolute below
/// ‖M‖ = 1, so a tiny matrix would otherwise come back barely rotated; the
/// power-of-two scaling itself is exact.
SymmetricEigenResult oracle(const Matrix& m) {
  const double norm = m.frobenius_norm();
  const int exponent = norm > 0.0 ? std::ilogb(norm) : 0;
  Matrix unscaled = m;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      unscaled(i, j) = std::ldexp(m(i, j), -exponent);
    }
  }
  SymmetricEigenResult result = symmetric_eigen(unscaled);
  for (double& v : result.eigenvalues) v = std::ldexp(v, exponent);
  return result;
}

/// Largest entry of the part of `basis` columns [lo, hi) that lies outside
/// span(other columns [lo, hi)).
double subspace_residual(const Matrix& basis, const Matrix& other, std::size_t lo,
                         std::size_t hi) {
  const std::size_t n = basis.rows();
  double worst = 0.0;
  for (std::size_t j = lo; j < hi; ++j) {
    std::vector<double> coef(hi - lo, 0.0);
    for (std::size_t c = lo; c < hi; ++c) {
      for (std::size_t r = 0; r < n; ++r) coef[c - lo] += other(r, c) * basis(r, j);
    }
    for (std::size_t r = 0; r < n; ++r) {
      double projected = 0.0;
      for (std::size_t c = lo; c < hi; ++c) projected += other(r, c) * coef[c - lo];
      worst = std::max(worst, std::abs(basis(r, j) - projected));
    }
  }
  return worst;
}

void check_against_oracle(const Matrix& m) {
  const std::size_t n = m.rows();
  const double norm = m.frobenius_norm();
  const SymmetricEigenResult ql = symmetric_eigen_ql(m);
  const SymmetricEigenResult jacobi = oracle(m);
  ASSERT_EQ(ql.eigenvalues.size(), n);
  ASSERT_EQ(ql.eigenvectors.rows(), n);
  ASSERT_EQ(ql.eigenvectors.cols(), n);

  // Descending, and equal to the oracle's spectrum.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(ql.eigenvalues[i - 1], ql.eigenvalues[i]) << "index " << i;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::abs(ql.eigenvalues[i] - jacobi.eigenvalues[i]), 1e-12 * norm)
        << "eigenvalue " << i << " of " << n;
  }

  // V·diag(λ)·Vᵀ reproduces M; VᵀV is the identity.
  const Matrix& v = ql.eigenvectors;
  double reconstruction = 0.0;
  double orthonormality = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double rebuilt = 0.0;
      double gram = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        rebuilt += v(i, k) * ql.eigenvalues[k] * v(j, k);
        gram += v(k, i) * v(k, j);
      }
      reconstruction = std::max(reconstruction, std::abs(rebuilt - m(i, j)));
      orthonormality = std::max(orthonormality, std::abs(gram - (i == j ? 1.0 : 0.0)));
    }
  }
  EXPECT_LE(reconstruction, 1e-12 * norm) << "n " << n;
  EXPECT_LE(orthonormality, 1e-13) << "n " << n;

  // Invariant subspaces agree wherever the spectrum separates: split it into
  // clusters at gaps above 1e-6·‖M‖ and compare each cluster's span. Both
  // solvers' vectors are accurate to about (residual)/(gap).
  const double split = 1e-6 * norm;
  std::size_t lo = 0;
  while (lo < n) {
    std::size_t hi = lo + 1;
    while (hi < n && jacobi.eigenvalues[hi - 1] - jacobi.eigenvalues[hi] <= split) ++hi;
    double gap = std::numeric_limits<double>::infinity();
    if (lo > 0) gap = std::min(gap, jacobi.eigenvalues[lo - 1] - jacobi.eigenvalues[lo]);
    if (hi < n) gap = std::min(gap, jacobi.eigenvalues[hi - 1] - jacobi.eigenvalues[hi]);
    if (std::isfinite(gap)) {
      EXPECT_LE(subspace_residual(jacobi.eigenvectors, v, lo, hi),
                1e-10 * norm / gap + 1e-12)
          << "cluster [" << lo << ", " << hi << ") of " << n;
    }
    lo = hi;
  }
}

TEST(SymmetricEigenQlOracle, MatchesJacobiOnEveryMatrixFamily) {
  FLARE_CHECK_PROPERTY(16, 0xE17u, [](stats::Rng& rng, double scale) {
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(scale * rng.uniform_int(1, 130))));
    for (int family = 0; family < kFamilies; ++family) {
      SCOPED_TRACE("family " + std::to_string(family) + ", n " + std::to_string(n));
      check_against_oracle(make_instance(family, n, rng));
    }
  });
}

TEST(SymmetricEigenQlOracle, CoversEverySizeUpToTheSchemaWidth) {
  // Every n in [1, 130] once, so no size is left to the sampler's luck.
  stats::Rng rng(0xE18u);
  for (std::size_t n = 1; n <= 130; ++n) {
    SCOPED_TRACE("n " + std::to_string(n));
    check_against_oracle(make_instance(static_cast<int>(n % kFamilies), n, rng));
  }
}

// ---- symmetric_eigen_leading: the spectrum and k leading vectors ----

/// symmetric_eigen_leading(m, k) against the full solvers: eigenvalues the
/// same bits as symmetric_eigen_ql's; every returned vector an eigenvector
/// (‖AZ − ZΛ‖_F ≤ 1e-12·‖A‖_F); Z orthonormal to 1e-13; and, where
/// λ_k − λ_{k+1} > 1e-4·‖A‖_F separates the leading block, its span within
/// sin θ ≤ 1e-10 of QL's and within Jacobi's own accuracy of Jacobi's. At a
/// tie only the first three hold.
void check_leading(const Matrix& m, std::size_t k, const SymmetricEigenResult& ql,
                   const SymmetricEigenResult& jacobi) {
  const std::size_t n = m.rows();
  const double norm = m.frobenius_norm();
  const SymmetricEigenResult leading = symmetric_eigen_leading(m, k);
  ASSERT_EQ(leading.eigenvalues.size(), n);
  ASSERT_EQ(leading.eigenvectors.rows(), n);
  ASSERT_EQ(leading.eigenvectors.cols(), k);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(leading.eigenvalues[i]),
              std::bit_cast<std::uint64_t>(ql.eigenvalues[i]))
        << "eigenvalue " << i << " of " << n << ": " << leading.eigenvalues[i]
        << " vs " << ql.eigenvalues[i];
  }

  const Matrix& z = leading.eigenvectors;
  double residual_sq = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double az = 0.0;
      for (std::size_t t = 0; t < n; ++t) az += m(i, t) * z(t, j);
      const double r = az - leading.eigenvalues[j] * z(i, j);
      residual_sq += r * r;
    }
  }
  EXPECT_LE(std::sqrt(residual_sq), 1e-12 * norm) << "n " << n << ", k " << k;
  double orthonormality = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      double gram = 0.0;
      for (std::size_t t = 0; t < n; ++t) gram += z(t, i) * z(t, j);
      orthonormality = std::max(orthonormality, std::abs(gram - (i == j ? 1.0 : 0.0)));
    }
  }
  EXPECT_LE(orthonormality, 1e-13) << "n " << n << ", k " << k;

  if (k == 0 || k == n) return;
  const double gap = jacobi.eigenvalues[k - 1] - jacobi.eigenvalues[k];
  if (!(gap > 1e-4 * norm)) return;
  EXPECT_LE(testing::subspace_sin_bound(ql.eigenvectors, z, k), 1e-10)
      << "n " << n << ", k " << k << " vs QL";
  // Jacobi stops once its off-diagonal norm is below 1e-12·‖A‖, so its own
  // vectors are good only to that over the gap (Davis–Kahan).
  EXPECT_LE(testing::subspace_sin_bound(jacobi.eigenvectors, z, k),
            1e-10 + 1e-12 * norm / gap)
      << "n " << n << ", k " << k << " vs Jacobi";
}

TEST(SymmetricEigenLeadingOracle, MatchesFullSolversOnEveryMatrixFamily) {
  FLARE_CHECK_PROPERTY(16, 0xE19u, [](stats::Rng& rng, double scale) {
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(scale * rng.uniform_int(1, 130))));
    for (int family = 0; family < kFamilies; ++family) {
      const Matrix m = make_instance(family, n, rng);
      const SymmetricEigenResult ql = symmetric_eigen_ql(m);
      const SymmetricEigenResult jacobi = oracle(m);
      for (const std::size_t k :
           {std::size_t{0}, std::size_t{1}, n, rng.uniform_int(0, n)}) {
        SCOPED_TRACE("family " + std::to_string(family) + ", n " +
                     std::to_string(n) + ", k " + std::to_string(k));
        check_leading(m, k, ql, jacobi);
      }
    }
  });
}

TEST(SymmetricEigenLeadingOracle, CoversEverySizeAndEveryK) {
  // Every n in [1, 130], and for each a spread of k covering 0..n, so no
  // shape is left to the sampler's luck.
  stats::Rng rng(0xE1Au);
  for (std::size_t n = 1; n <= 130; ++n) {
    const Matrix m = make_instance(static_cast<int>(n % kFamilies), n, rng);
    const SymmetricEigenResult ql = symmetric_eigen_ql(m);
    const SymmetricEigenResult jacobi = oracle(m);
    const std::size_t step = std::max<std::size_t>(1, n / 7);
    for (std::size_t k = n % step; k <= n; k += step) {
      SCOPED_TRACE("n " + std::to_string(n) + ", k " + std::to_string(k));
      check_leading(m, k, ql, jacobi);
    }
  }
}

TEST(SymmetricEigenLeadingOracle, RepeatedAndTiedLeadingEigenvalues) {
  FLARE_CHECK_PROPERTY(12, 0xE1Bu, [](stats::Rng& rng, double scale) {
    const std::size_t n = std::max<std::size_t>(
        6, static_cast<std::size_t>(std::lround(scale * rng.uniform_int(6, 130))));
    // A leading block with a triple eigenvalue inside it, a separated tail,
    // and — at k = tie — an exact λ_k = λ_{k+1}.
    const std::size_t tie = rng.uniform_int(4, n - 2);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = i < tie ? 10.0 + static_cast<double>(tie - i) : rng.uniform(-1.0, 1.0);
    }
    values[0] = values[1] = values[2] = 50.0;
    values[tie - 1] = values[tie] = 5.0;
    const Matrix m = with_spectrum(values, rng);
    const SymmetricEigenResult ql = symmetric_eigen_ql(m);
    const SymmetricEigenResult jacobi = oracle(m);
    for (const std::size_t k : {std::size_t{2}, std::size_t{3}, tie, tie + 1, tie - 1}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", k " + std::to_string(k));
      check_leading(m, k, ql, jacobi);
    }
  });
}

}  // namespace
}  // namespace flare::linalg
