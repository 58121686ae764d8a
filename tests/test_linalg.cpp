// Matrix and LU solver tests, real and complex.
#include "linalg/hessenberg.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ota::linalg {
namespace {

TEST(Matrix, BasicAccess) {
  MatrixD m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, MatVec) {
  MatrixD a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 3.0; a(1, 1) = 4.0;
  auto y = matvec(a, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatVecDimensionMismatchThrows) {
  MatrixD a(2, 2);
  EXPECT_THROW(matvec(a, {1.0}), InvalidArgument);
}

TEST(Lu, Solves2x2) {
  MatrixD a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  auto x = solve(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the first diagonal entry forces a row swap.
  MatrixD a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  auto x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  MatrixD a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(solve(a, {1.0, 2.0}), ConvergenceError);
}

TEST(Lu, ZeroMatrixThrows) {
  MatrixD a(3, 3);
  EXPECT_THROW((void)LuDecomposition<double>{a}, ConvergenceError);
}

TEST(Lu, NonSquareThrows) {
  MatrixD a(2, 3);
  EXPECT_THROW((void)LuDecomposition<double>{a}, InvalidArgument);
}

TEST(Lu, ComplexSystem) {
  using C = std::complex<double>;
  MatrixC a(2, 2);
  a(0, 0) = C{1.0, 1.0}; a(0, 1) = C{0.0, -1.0};
  a(1, 0) = C{2.0, 0.0}; a(1, 1) = C{1.0, 0.0};
  const std::vector<C> x_ref{C{1.0, 2.0}, C{-1.0, 0.5}};
  const auto b = matvec(a, x_ref);
  const auto x = solve(a, b);
  EXPECT_NEAR(std::abs(x[0] - x_ref[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - x_ref[1]), 0.0, 1e-12);
}

class LuRandom : public ::testing::TestWithParam<int> {};

TEST_P(LuRandom, ReconstructsRandomSolution) {
  const int n = GetParam();
  Rng rng(42 + static_cast<uint64_t>(n));
  MatrixD a(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) a(static_cast<size_t>(r), static_cast<size_t>(c)) = rng.normal();
    a(static_cast<size_t>(r), static_cast<size_t>(r)) += n;  // diagonal dominance
  }
  std::vector<double> x_ref(static_cast<size_t>(n));
  for (auto& v : x_ref) v = rng.normal();
  const auto b = matvec(a, x_ref);
  const auto x = solve(a, b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandom, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Lu, MultipleRhsAgainstOneFactorization) {
  MatrixD a(3, 3);
  a(0, 0) = 4; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 1; a(1, 1) = 4; a(1, 2) = 1;
  a(2, 0) = 0; a(2, 1) = 1; a(2, 2) = 4;
  LuDecomposition<double> lu(a);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> e(3, 0.0);
    e[static_cast<size_t>(k)] = 1.0;
    const auto x = lu.solve(e);
    const auto back = matvec(a, x);
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(back[static_cast<size_t>(i)], e[static_cast<size_t>(i)], 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Hessenberg-triangular reduction of a real pencil and its shifted solves.

MatrixD identity(size_t n) {
  MatrixD m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

MatrixD product(const MatrixD& a, const MatrixD& b) {
  MatrixD m(a.rows(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r)
    for (size_t k = 0; k < a.cols(); ++k)
      for (size_t c = 0; c < b.cols(); ++c) m(r, c) += a(r, k) * b(k, c);
  return m;
}

MatrixD transpose(const MatrixD& a) {
  MatrixD m(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r)
    for (size_t c = 0; c < a.cols(); ++c) m(c, r) = a(r, c);
  return m;
}

double frobenius_distance(const MatrixD& a, const MatrixD& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.data().size(); ++i) {
    const double d = a.data()[i] - b.data()[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

MatrixD random_matrix(size_t n, Rng& rng) {
  MatrixD m(n, n);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

// Checks the structure, orthogonality and backward error of reduce(a, b).
void expect_valid_reduction(const MatrixD& a, const MatrixD& b) {
  const size_t n = a.rows();
  const HessenbergTriangular ht(a, b, identity(n));
  const MatrixD& qt = ht.qt_rhs();  // Qᵀ I
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c + 1 < r; ++c) {
      EXPECT_EQ(ht.h()(r, c), 0.0) << r << "," << c;
    }
    for (size_t c = 0; c < r; ++c) {
      EXPECT_EQ(ht.t()(r, c), 0.0) << r << "," << c;
    }
  }
  EXPECT_LE(frobenius_distance(product(qt, transpose(qt)), identity(n)), 1e-14);
  EXPECT_LE(frobenius_distance(product(transpose(ht.z()), ht.z()), identity(n)),
            1e-14);
  const double scale_a = std::max(1.0, frobenius_distance(a, MatrixD(n, n)));
  const double scale_b = std::max(1.0, frobenius_distance(b, MatrixD(n, n)));
  EXPECT_LE(frobenius_distance(product(product(qt, a), ht.z()), ht.h()),
            1e-14 * scale_a);
  EXPECT_LE(frobenius_distance(product(product(qt, b), ht.z()), ht.t()),
            1e-14 * scale_b);
}

class HessenbergTriangularRandom : public ::testing::TestWithParam<int> {};

TEST_P(HessenbergTriangularRandom, ReducesRegularAndSingularPencils) {
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(7 + n);
  const MatrixD a = random_matrix(n, rng);
  {
    SCOPED_TRACE("full B");
    expect_valid_reduction(a, random_matrix(n, rng));
  }
  {
    SCOPED_TRACE("B with zero rows and columns (MNA voltage-source rows)");
    MatrixD b = random_matrix(n, rng);
    for (size_t i = 0; i < n; i += 3) {
      for (size_t k = 0; k < n; ++k) b(i, k) = b(k, i) = 0.0;
    }
    expect_valid_reduction(a, b);
  }
  {
    SCOPED_TRACE("rank-one B");
    std::vector<double> u(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      u[i] = rng.normal();
      v[i] = rng.normal();
    }
    MatrixD b(n, n);
    for (size_t r = 0; r < n; ++r)
      for (size_t c = 0; c < n; ++c) b(r, c) = u[r] * v[c];
    expect_valid_reduction(a, b);
  }
  {
    SCOPED_TRACE("zero B");
    expect_valid_reduction(a, MatrixD(n, n));
  }
}

TEST_P(HessenbergTriangularRandom, ShiftedSolvesMatchDenseLu) {
  using C = std::complex<double>;
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(11 + n);
  MatrixD a = random_matrix(n, rng);
  for (size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  MatrixD b = random_matrix(n, rng);
  if (n > 1) {
    for (size_t k = 0; k < n; ++k) b(n - 1, k) = 0.0;  // singular B
  }
  const HessenbergTriangular ht(a, b, identity(n));
  HessenbergTriangular::Workspace ws;
  for (double omega : {0.0, 0.3, 1.0, 7.0}) {
    MatrixC m(n, n);
    for (size_t i = 0; i < m.data().size(); ++i) {
      m.data()[i] = C{a.data()[i], omega * b.data()[i]};
    }
    const LuDecomposition<C> lu(m);
    for (size_t col = 0; col < n; ++col) {
      std::vector<C> e(n);
      e[col] = 1.0;
      const std::vector<C> x_lu = lu.solve(e);
      ht.solve_shifted(omega, col, ws);
      for (size_t r = 0; r < n; ++r) {
        EXPECT_NEAR(std::abs(ht.solution(r, ws) - x_lu[r]), 0.0, 1e-12)
            << "omega " << omega << " column " << col << " row " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HessenbergTriangularRandom,
                         ::testing::Values(1, 2, 3, 5, 8, 11, 14, 21));

TEST(HessenbergTriangular, SingularShiftedSystemThrows) {
  // Row 1 of both A and B is zero: A + iwB is singular for every w.
  MatrixD a(3, 3), b(3, 3);
  a(0, 0) = 2.0; a(0, 2) = 1.0; a(2, 1) = 3.0; a(2, 2) = 1.0;
  b(0, 0) = 1e-3; b(2, 2) = 2e-3;
  MatrixD rhs(3, 1);
  rhs(0, 0) = 1.0;
  const HessenbergTriangular ht(a, b, rhs);
  HessenbergTriangular::Workspace ws;
  for (double omega : {0.0, 1.0, 1e6}) {
    EXPECT_THROW(ht.solve_shifted(omega, 0, ws), ConvergenceError) << omega;
  }
  const HessenbergTriangular zero(MatrixD(2, 2), MatrixD(2, 2), MatrixD(2, 1));
  EXPECT_THROW(zero.solve_shifted(1.0, 0, ws), ConvergenceError);
}

TEST(HessenbergTriangular, RejectsMismatchedShapes) {
  using HT = HessenbergTriangular;
  EXPECT_THROW(HT(MatrixD(0, 0), MatrixD(0, 0), MatrixD(0, 1)), InvalidArgument);
  EXPECT_THROW(HT(MatrixD(2, 3), MatrixD(2, 2), MatrixD(2, 1)), InvalidArgument);
  EXPECT_THROW(HT(MatrixD(2, 2), MatrixD(3, 3), MatrixD(2, 1)), InvalidArgument);
  EXPECT_THROW(HT(MatrixD(2, 2), MatrixD(2, 2), MatrixD(3, 1)), InvalidArgument);
}

}  // namespace
}  // namespace ota::linalg
