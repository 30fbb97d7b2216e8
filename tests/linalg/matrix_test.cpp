#include "linalg/matrix.hpp"
#include "tests/util/matrix_matchers.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace flare::linalg {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  const Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, ZeroInitialised) {
  const Matrix m(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, FillConstructor) {
  const Matrix m(2, 2, 5.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
}

TEST(Matrix, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, std::vector<double>{1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, FromRowsBuildsRowMajor) {
  const Matrix m = testing::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(testing::from_rows({{1, 2}, {3}}), std::invalid_argument);
  EXPECT_THROW(testing::from_rows({}), std::invalid_argument);
}

TEST(Matrix, IdentityHasOnesOnDiagonal) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, RowViewIsMutable) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(Matrix, ColumnCopiesValues) {
  const Matrix m = testing::from_rows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.column(1), (std::vector<double>{2, 4, 6}));
}

TEST(Matrix, SetRowAndColumn) {
  Matrix m(2, 2);
  m.set_row(0, std::vector<double>{1, 2});
  m.set_row(1, std::vector<double>{7, 8});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
}

TEST(Matrix, SetRowValidatesSize) {
  Matrix m(2, 2);
  EXPECT_THROW(m.set_row(0, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(m.set_row(2, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix m = testing::from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  const Matrix a = testing::from_rows({{1, 2}, {3, 4}});
  const Matrix b = testing::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyByIdentityIsIdentity) {
  const Matrix a = testing::from_rows({{1, 2}, {3, 4}});
  EXPECT_EQ(a.multiply(Matrix::identity(2)), a);
  EXPECT_EQ(Matrix::identity(2).multiply(a), a);
}

TEST(Matrix, MultiplyValidatesInnerDimension) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a = testing::from_rows({{1, 2}, {3, 4}});
  const std::vector<double> x = {1, 1};
  EXPECT_EQ(testing::matvec(a, x), (std::vector<double>{3, 7}));
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a = testing::from_rows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(Matrix, MaxAbsDiff) {
  const Matrix a = testing::from_rows({{1, 2}, {3, 4}});
  const Matrix b = testing::from_rows({{1, 2.5}, {3, 3}});
  EXPECT_DOUBLE_EQ(testing::max_abs_diff(a, b), 1.0);
}

TEST(Matrix, SelectColumnsReorders) {
  const Matrix a = testing::from_rows({{1, 2, 3}, {4, 5, 6}});
  const std::vector<std::size_t> keep = {2, 0};
  const Matrix s = a.select_columns(keep);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 4.0);
}

TEST(Matrix, SelectRowsReorders) {
  const Matrix a = testing::from_rows({{1, 2}, {3, 4}, {5, 6}});
  const std::vector<std::size_t> keep = {2, 0};
  const Matrix s = a.select_rows(keep);
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 1.0);
}

TEST(Matrix, SelectValidatesIndices) {
  const Matrix a(2, 2);
  const std::vector<std::size_t> bad = {5};
  EXPECT_THROW(a.select_columns(bad), std::invalid_argument);
  EXPECT_THROW(a.select_rows(bad), std::invalid_argument);
}

TEST(VectorOps, SquaredDistance) {
  const std::vector<double> a = {0, 0};
  const std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, a), 0.0);
}

TEST(VectorOps, ValidateSizes) {
  const std::vector<double> a = {1};
  const std::vector<double> b = {1, 2};
  EXPECT_THROW((void)squared_distance(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace flare::linalg
