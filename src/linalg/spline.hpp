// Cubic-spline interpolation for the precomputed device LUTs.
//
// The paper stores LUT samples on a coarse 60 mV grid and relies on cubic
// spline interpolation for intermediate bias points (Section III-D.1).
// CubicSpline1D implements the classical natural cubic spline; BicubicSpline
// applies it as a tensor product over a rectangular (Vgs, Vds) grid.  Both
// share SplineAxis, which factors the knot-only half of the natural-spline
// tridiagonal solve once, so a solve per sample set is two short sweeps.
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace ota::linalg {

/// Interpolation weights of one query inside one knot segment [i, i+1].
struct SplineSegment {
  size_t i = 0;
  double h = 0.0;   ///< knot spacing x[i+1] - x[i]
  double a = 0.0;   ///< (x[i+1] - x) / h
  double b = 0.0;   ///< (x - x[i]) / h
  double ca = 0.0;  ///< a^3 - a
  double cb = 0.0;  ///< b^3 - b

  /// The segment's cubic from its end samples y0, y1 and second
  /// derivatives m0, m1.
  double operator()(double y0, double y1, double m0, double m1) const {
    return a * y0 + b * y1 + (ca * m0 + cb * m1) * h * h / 6.0;
  }
};

/// Strictly increasing knots plus the part of the natural-spline system
/// (m_0 = m_{n-1} = 0) that depends on them alone: the spacings, the
/// Thomas-eliminated diagonal and the forward-sweep multipliers.
class SplineAxis {
 public:
  SplineAxis() = default;

  /// Requires at least two strictly increasing knots.
  explicit SplineAxis(std::vector<double> knots);

  /// Weights of `x` in the rightmost segment whose left knot is <= x,
  /// clamped to the first/last segment (so outside the knot range the
  /// boundary cubic is extrapolated).
  SplineSegment segment(double x) const;

  /// Second derivatives of `channels` interleaved sample series:
  /// y[k * channels + c] is series c at knot k, and m gets the same layout.
  /// Only m at knots >= `lowest` (and knot 0) is guaranteed; the back
  /// substitution stops there.
  void second_derivatives(const double* y, size_t channels, double* m,
                          size_t lowest = 0) const;

  const std::vector<double>& knots() const { return x_; }
  size_t size() const { return x_.size(); }

 private:
  std::vector<double> x_;
  std::vector<double> h_;     // h_[k] = x_[k+1] - x_[k]
  std::vector<double> diag_;  // eliminated diagonal at interior knot k
  std::vector<double> mult_;  // forward-sweep multiplier at interior knot k
};

/// Natural cubic spline through (x_i, y_i) with strictly increasing x.
class CubicSpline1D {
 public:
  CubicSpline1D() = default;

  /// Builds the spline; requires at least two points and strictly increasing x.
  CubicSpline1D(std::vector<double> x, std::vector<double> y);

  /// Evaluates the spline at `x`.  Outside the knot range the boundary cubic
  /// is extrapolated (callers clamp when extrapolation is not wanted).
  double operator()(double x) const;

  /// First derivative of the spline at `x`.
  double derivative(double x) const;

  bool empty() const { return axis_.size() == 0; }

 private:
  void check_nonempty() const;

  SplineAxis axis_;
  std::vector<double> y_;
  std::vector<double> m_;  // second derivatives at the knots
};

/// Tensor-product cubic spline over a rectangular grid, z = f(x, y), for one
/// or more channels sampled on the same grid.  Construction stores the flat
/// samples with their second derivatives along y and factors both axes.  A
/// query evaluates every grid row (fixed x[i]) at the query y from one shared
/// y-segment, then splines that column of row values along x.  The result is
/// bit-identical to splining each row with a CubicSpline1D and the column
/// with a fresh CubicSpline1D(x, column); queries allocate nothing after a
/// thread's first.
///
/// Callers that query many x at one y build the column once with column()
/// and answer each x with evaluate_column(), which skips the row
/// interpolation and the tridiagonal solve.  The answers are bit-identical to
/// evaluate(): the back substitution yields the same value at a knot however
/// far below it the sweep continues.
class BicubicSpline {
 public:
  BicubicSpline() = default;

  /// `z(i, j)` is the sample at (x[i], y[j]).  Both axes need at least two
  /// strictly increasing knots.
  BicubicSpline(std::vector<double> x, std::vector<double> y, const Matrix<double>& z);

  /// One spline per channel over shared axes: `channels[c](i, j)` is channel
  /// c's sample at (x[i], y[j]).
  BicubicSpline(std::vector<double> x, std::vector<double> y,
                const std::vector<Matrix<double>>& channels);

  /// Interpolated value of a single-channel spline at (x, y), clamped to the
  /// grid's bounding box.
  double operator()(double x, double y) const;

  /// Interpolated value of every channel at (x, y), clamped to the grid's
  /// bounding box; `out.size()` must equal channels().
  void evaluate(double x, double y, std::span<double> out) const;

  /// Doubles in one column: every channel's row value at each x knot,
  /// followed by the second derivatives along x in the same layout.
  size_t column_size() const { return 2 * x_.size() * channels_; }

  /// The column at `y` (clamped to the grid), built in this thread's
  /// evaluation scratch: the view stays valid until the thread's next
  /// column() or evaluate() on any BicubicSpline.  Copy it to keep it.
  std::span<const double> column(double y) const;

  /// Every channel at (x, y) from a column built at y, clamped to the grid
  /// in x; bit-identical to evaluate(x, y, out).  Touches no scratch.
  void evaluate_column(std::span<const double> column, double x,
                       std::span<double> out) const;

  /// Raw grid sample of channel `c` at (x[i], y[j]).
  double sample(size_t i, size_t j, size_t c = 0) const {
    return z_[(i * y_.size() + j) * channels_ + c];
  }

  size_t channels() const { return channels_; }
  bool empty() const { return channels_ == 0; }

 private:
  // Builds the column at y in thread scratch with second derivatives
  // guaranteed at knots >= `lowest` only.
  std::span<const double> build_column(double y, size_t lowest) const;
  // Evaluates every channel in x segment `sx` of a built column.
  void evaluate_segment(std::span<const double> column, const SplineSegment& sx,
                        std::span<double> out) const;

  SplineAxis x_;
  SplineAxis y_;
  size_t channels_ = 0;
  std::vector<double> z_;   // samples, [i][j][c] row-major
  std::vector<double> mz_;  // second derivatives along y, same layout
};

}  // namespace ota::linalg
