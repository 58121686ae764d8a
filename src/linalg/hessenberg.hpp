// Hessenberg–triangular reduction of a real matrix pencil, and shifted
// complex solves against it.
//
// For real n×n matrices A and B, orthogonal Q and Z with
//
//   Qᵀ A Z = H  (upper Hessenberg),   Qᵀ B Z = T  (upper triangular)
//
// turn every shifted system (A + iωB) x = b into (H + iωT) y = Qᵀ b with
// x = Z y.  H + iωT is upper Hessenberg for every ω, so one O(n³) reduction
// buys an O(n²) solve per shift where a fresh LU would cost O(n³) each time.
// The AC analysis solves G + jωC at every frequency this way (Laub, IEEE TAC
// 1981; Golub & Van Loan, Matrix Computations, Alg. 7.7.1).  B may be
// singular: MNA capacitance matrices have zero rows for voltage sources.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace ota::linalg {

class HessenbergTriangular {
 public:
  /// Scratch for solve_shifted(), reusable across calls and sizes.  Real and
  /// imaginary parts live apart so the elimination is plain real arithmetic
  /// (no libgcc complex multiply/divide calls).
  struct Workspace {
    std::vector<double> m_re, m_im;  ///< H + iωT, row-major; then its U factor
    std::vector<double> y_re, y_im;  ///< the reduced right-hand side, then y
  };

  /// Reduces the pencil (a, b) by Givens rotations and applies Qᵀ to the
  /// columns of `rhs` on the way, so Q itself is never formed (pass the
  /// identity as `rhs` to recover Qᵀ).  Throws InvalidArgument unless a and
  /// b are square, of one size n >= 1, and rhs has n rows.
  HessenbergTriangular(MatrixD a, MatrixD b, MatrixD rhs)
      : h_(std::move(a)), t_(std::move(b)), qt_rhs_(std::move(rhs)) {
    const size_t n = h_.rows();
    if (n == 0 || h_.cols() != n || t_.rows() != n || t_.cols() != n ||
        qt_rhs_.rows() != n) {
      throw InvalidArgument(
          "HessenbergTriangular: need square n x n a and b, n x m rhs, n >= 1");
    }
    z_.reset(n, n);
    for (size_t i = 0; i < n; ++i) z_(i, i) = 1.0;

    // Stage 1: T = Qᵀ B upper triangular (a Givens QR of B), carrying A and
    // rhs along.  Each rotation mixes adjacent rows q-1 and q; entries that
    // are already zero (most of a sparse MNA C) need no rotation.
    for (size_t j = 0; j + 1 < n; ++j) {
      for (size_t q = n - 1; q > j; --q) {
        if (t_(q, j) == 0.0) continue;
        const Rotation g = rotation(t_(q - 1, j), t_(q, j));
        rotate_rows(t_, q, j, g);
        rotate_rows(h_, q, 0, g);
        rotate_rows(qt_rhs_, q, 0, g);
        t_(q - 1, j) = g.r;
        t_(q, j) = 0.0;
      }
    }
    // Stage 2: H upper Hessenberg, column by column from the bottom.  A left
    // rotation of rows q-1, q fills T(q, q-1); a right rotation of columns
    // q-1, q removes it again without touching H's finished columns.
    for (size_t j = 0; j + 2 < n; ++j) {
      for (size_t q = n - 1; q > j + 1; --q) {
        if (h_(q, j) == 0.0) continue;
        const Rotation g = rotation(h_(q - 1, j), h_(q, j));
        rotate_rows(h_, q, j, g);
        rotate_rows(t_, q, q - 1, g);
        rotate_rows(qt_rhs_, q, 0, g);
        h_(q - 1, j) = g.r;
        h_(q, j) = 0.0;
        if (t_(q, q - 1) == 0.0) continue;
        const Rotation gz = rotation(t_(q, q), -t_(q, q - 1));
        rotate_cols(h_, q, n, gz);
        rotate_cols(t_, q, q + 1, gz);
        rotate_cols(z_, q, n, gz);
        t_(q, q) = gz.r;
        t_(q, q - 1) = 0.0;
      }
    }
  }

  size_t size() const { return h_.rows(); }
  const MatrixD& h() const { return h_; }
  const MatrixD& t() const { return t_; }
  const MatrixD& z() const { return z_; }
  /// Qᵀ times the constructor's `rhs`.
  const MatrixD& qt_rhs() const { return qt_rhs_; }

  /// Solves (H + iωT) y = column `col` of qt_rhs() into `ws`, by Gaussian
  /// elimination of the one subdiagonal with adjacent-row partial pivoting
  /// and back substitution.  Throws ConvergenceError when a pivot falls
  /// below 1e-14 times the largest entry of H + iωT (LuDecomposition's
  /// default rule).  Read x = Z y through solution().
  void solve_shifted(double omega, size_t col, Workspace& ws) const {
    constexpr double kSingularTol = 1e-14;
    const size_t n = size();
    ws.m_re.resize(n * n);
    ws.m_im.resize(n * n);
    ws.y_re.resize(n);
    ws.y_im.resize(n);
    double* const mr = ws.m_re.data();
    double* const mi = ws.m_im.data();
    double* const yr = ws.y_re.data();
    double* const yi = ws.y_im.data();

    // Magnitudes are compared squared throughout: no hypot per entry.
    double max2 = 0.0;
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = r == 0 ? 0 : r - 1; c < n; ++c) {
        const double re = h_(r, c);
        const double im = omega * t_(r, c);
        mr[r * n + c] = re;
        mi[r * n + c] = im;
        max2 = std::max(max2, re * re + im * im);
      }
      yr[r] = qt_rhs_(r, col);
      yi[r] = 0.0;
    }
    if (max2 == 0.0) throw ConvergenceError("shifted solve: zero matrix");
    const double tol2 = kSingularTol * kSingularTol * max2;

    for (size_t k = 0; k < n; ++k) {
      double* const pr = mr + k * n;
      double* const pi = mi + k * n;
      double* const sr = pr + n;  // row k+1 (past the end when k == n-1)
      double* const si = pi + n;
      const bool last = k + 1 == n;
      if (!last &&
          sr[k] * sr[k] + si[k] * si[k] > pr[k] * pr[k] + pi[k] * pi[k]) {
        for (size_t c = k; c < n; ++c) {
          std::swap(pr[c], sr[c]);
          std::swap(pi[c], si[c]);
        }
        std::swap(yr[k], yr[k + 1]);
        std::swap(yi[k], yi[k + 1]);
      }
      const double d2 = pr[k] * pr[k] + pi[k] * pi[k];
      if (!(d2 >= tol2)) {
        throw ConvergenceError("shifted solve: matrix is numerically singular");
      }
      // The diagonal keeps the pivot's reciprocal: back substitution
      // multiplies by it instead of dividing.
      const double vr = pr[k] / d2;
      const double vi = -pi[k] / d2;
      pr[k] = vr;
      pi[k] = vi;
      if (last) break;
      const double fr = sr[k] * vr - si[k] * vi;  // multiplier s_k / p_k
      const double fi = sr[k] * vi + si[k] * vr;
      for (size_t c = k + 1; c < n; ++c) {
        sr[c] -= fr * pr[c] - fi * pi[c];
        si[c] -= fr * pi[c] + fi * pr[c];
      }
      const double ur = yr[k], ui = yi[k];
      yr[k + 1] -= fr * ur - fi * ui;
      yi[k + 1] -= fr * ui + fi * ur;
    }

    for (size_t k = n; k-- > 0;) {
      const double* const pr = mr + k * n;
      const double* const pi = mi + k * n;
      double ar = yr[k], ai = yi[k];
      for (size_t c = k + 1; c < n; ++c) {
        ar -= pr[c] * yr[c] - pi[c] * yi[c];
        ai -= pr[c] * yi[c] + pi[c] * yr[c];
      }
      yr[k] = ar * pr[k] - ai * pi[k];
      yi[k] = ar * pi[k] + ai * pr[k];
    }
  }

  /// Component `r` of x = Z y for the solve last written into `ws`: O(n), so
  /// a caller that needs one unknown never forms all of x.
  std::complex<double> solution(size_t r, const Workspace& ws) const {
    const size_t n = size();
    const double* const zr = &z_(r, 0);
    double re = 0.0, im = 0.0;
    for (size_t c = 0; c < n; ++c) {
      re += zr[c] * ws.y_re[c];
      im += zr[c] * ws.y_im[c];
    }
    return {re, im};
  }

 private:
  /// [c s; -s c] maps (x, y) to (r, 0).
  struct Rotation {
    double c, s, r;
  };
  static Rotation rotation(double x, double y) {
    const double r = std::hypot(x, y);
    return {x / r, y / r, r};
  }
  /// Applies `g` to rows q-1 and q of `m`, columns [c0, cols).
  static void rotate_rows(MatrixD& m, size_t q, size_t c0, const Rotation& g) {
    if (c0 >= m.cols()) return;
    double* const a = &m(q - 1, 0);
    double* const b = &m(q, 0);
    for (size_t k = c0; k < m.cols(); ++k) {
      const double x = a[k], y = b[k];
      a[k] = g.c * x + g.s * y;
      b[k] = g.c * y - g.s * x;
    }
  }
  /// Applies `g` to columns q-1 and q of `m`, rows [0, r1).
  static void rotate_cols(MatrixD& m, size_t q, size_t r1, const Rotation& g) {
    for (size_t r = 0; r < r1; ++r) {
      const double x = m(r, q - 1), y = m(r, q);
      m(r, q - 1) = g.c * x + g.s * y;
      m(r, q) = g.c * y - g.s * x;
    }
  }

  MatrixD h_;       ///< Qᵀ A Z, upper Hessenberg
  MatrixD t_;       ///< Qᵀ B Z, upper triangular
  MatrixD z_;       ///< the right transformation Z
  MatrixD qt_rhs_;  ///< Qᵀ rhs
};

}  // namespace ota::linalg
