#include "linalg/spline.hpp"

#include <algorithm>
#include <cmath>

namespace ota::linalg {

SplineAxis::SplineAxis(std::vector<double> knots) : x_(std::move(knots)) {
  const size_t n = x_.size();
  if (n < 2) throw InvalidArgument("spline: need at least two knots");
  for (size_t k = 1; k < n; ++k) {
    if (!(x_[k] > x_[k - 1])) {
      throw InvalidArgument("spline: knots must be strictly increasing");
    }
  }
  h_.resize(n - 1);
  for (size_t k = 0; k + 1 < n; ++k) h_[k] = x_[k + 1] - x_[k];

  // Thomas elimination of the interior rows h[k-1] m[k-1] + 2(h[k-1] + h[k])
  // m[k] + h[k] m[k+1] = rhs[k]: the diagonal and multipliers depend on the
  // knots only, so they are eliminated once here.
  diag_.assign(n, 0.0);
  mult_.assign(n, 0.0);
  for (size_t k = 1; k + 1 < n; ++k) diag_[k] = 2.0 * (h_[k - 1] + h_[k]);
  for (size_t k = 2; k + 1 < n; ++k) {
    mult_[k] = h_[k - 1] / diag_[k - 1];
    diag_[k] -= mult_[k] * h_[k - 1];
  }
}

SplineSegment SplineAxis::segment(double x) const {
  // Rightmost segment whose left knot is <= x; clamp to valid segment range.
  auto it = std::upper_bound(x_.begin(), x_.end(), x);
  size_t i = 0;
  if (it != x_.begin()) {
    i = std::min(static_cast<size_t>(it - x_.begin()) - 1, x_.size() - 2);
  }
  SplineSegment s;
  s.i = i;
  s.h = h_[i];
  s.a = (x_[i + 1] - x) / s.h;
  s.b = (x - x_[i]) / s.h;
  s.ca = s.a * s.a * s.a - s.a;
  s.cb = s.b * s.b * s.b - s.b;
  return s;
}

void SplineAxis::second_derivatives(const double* y, size_t channels, double* m,
                                    size_t lowest) const {
  const size_t n = x_.size();
  const size_t c_n = channels;
  // Slopes (y[k+1] - y[k]) / h[k] into m[k], then, walking down so m[k-1]
  // still holds its slope, the right-hand side 6 (slope[k] - slope[k-1]).
  for (size_t k = 0; k + 1 < n; ++k) {
    for (size_t c = 0; c < c_n; ++c) {
      m[k * c_n + c] = (y[(k + 1) * c_n + c] - y[k * c_n + c]) / h_[k];
    }
  }
  for (size_t k = n - 2; k >= 1; --k) {
    for (size_t c = 0; c < c_n; ++c) {
      m[k * c_n + c] = 6.0 * (m[k * c_n + c] - m[(k - 1) * c_n + c]);
    }
  }
  for (size_t c = 0; c < c_n; ++c) {
    m[c] = 0.0;
    m[(n - 1) * c_n + c] = 0.0;
  }
  // Forward sweep of the right-hand side.
  for (size_t k = 2; k + 1 < n; ++k) {
    for (size_t c = 0; c < c_n; ++c) {
      m[k * c_n + c] -= mult_[k] * m[(k - 1) * c_n + c];
    }
  }
  // Back substitution into the interior second derivatives, down to `lowest`.
  const size_t stop = std::max<size_t>(lowest, 1);
  for (size_t k = n - 1; k-- > stop;) {
    for (size_t c = 0; c < c_n; ++c) {
      double acc = m[k * c_n + c];
      if (k + 2 < n) acc -= h_[k] * m[(k + 1) * c_n + c];
      m[k * c_n + c] = acc / diag_[k];
    }
  }
}

CubicSpline1D::CubicSpline1D(std::vector<double> x, std::vector<double> y)
    : axis_(std::move(x)), y_(std::move(y)) {
  if (y_.size() != axis_.size()) {
    throw InvalidArgument("CubicSpline1D: x/y size mismatch");
  }
  m_.resize(y_.size());
  axis_.second_derivatives(y_.data(), 1, m_.data());
}

void CubicSpline1D::check_nonempty() const {
  if (empty()) throw InternalError("CubicSpline1D: evaluating empty spline");
}

double CubicSpline1D::operator()(double x) const {
  check_nonempty();
  const SplineSegment s = axis_.segment(x);
  return s(y_[s.i], y_[s.i + 1], m_[s.i], m_[s.i + 1]);
}

double CubicSpline1D::derivative(double x) const {
  check_nonempty();
  const SplineSegment s = axis_.segment(x);
  const size_t i = s.i;
  return (y_[i + 1] - y_[i]) / s.h +
         ((3.0 * s.b * s.b - 1.0) * m_[i + 1] - (3.0 * s.a * s.a - 1.0) * m_[i]) *
             s.h / 6.0;
}

BicubicSpline::BicubicSpline(std::vector<double> x, std::vector<double> y,
                             const Matrix<double>& z)
    : BicubicSpline(std::move(x), std::move(y), std::vector<Matrix<double>>{z}) {}

BicubicSpline::BicubicSpline(std::vector<double> x, std::vector<double> y,
                             const std::vector<Matrix<double>>& channels)
    : x_(std::move(x)), y_(std::move(y)), channels_(channels.size()) {
  const size_t nx = x_.size(), ny = y_.size(), c_n = channels_;
  if (c_n == 0) throw InvalidArgument("BicubicSpline: no channels");
  for (const auto& z : channels) {
    if (z.rows() != nx || z.cols() != ny) {
      throw InvalidArgument("BicubicSpline: grid size mismatch");
    }
  }
  z_.resize(nx * ny * c_n);
  mz_.resize(z_.size());
  for (size_t i = 0; i < nx; ++i) {
    for (size_t j = 0; j < ny; ++j) {
      for (size_t c = 0; c < c_n; ++c) z_[(i * ny + j) * c_n + c] = channels[c](i, j);
    }
    // Each grid row's second derivatives along y, all channels at once.
    y_.second_derivatives(&z_[i * ny * c_n], c_n, &mz_[i * ny * c_n]);
  }
}

double BicubicSpline::operator()(double x, double y) const {
  if (channels_ != 1) {
    throw InvalidArgument("BicubicSpline: scalar evaluation needs one channel");
  }
  double v = 0.0;
  evaluate(x, y, std::span<double>(&v, 1));
  return v;
}

void BicubicSpline::evaluate(double x, double y, std::span<double> out) const {
  if (empty()) throw InternalError("BicubicSpline: evaluating empty spline");
  if (out.size() != channels_) {
    throw InvalidArgument("BicubicSpline: output size differs from channel count");
  }
  const size_t nx = x_.size(), ny = y_.size(), c_n = channels_;
  x = std::clamp(x, x_.knots().front(), x_.knots().back());
  y = std::clamp(y, y_.knots().front(), y_.knots().back());

  // Per-thread scratch for the column of row values and its second
  // derivatives; it grows on a thread's first query and is reused after.
  thread_local std::vector<double> scratch;
  if (scratch.size() < 2 * nx * c_n) scratch.resize(2 * nx * c_n);
  double* column = scratch.data();
  double* m = column + nx * c_n;

  // Every row shares the y knots, hence one segment search for all of them.
  const SplineSegment sy = y_.segment(y);
  for (size_t i = 0; i < nx; ++i) {
    const size_t at = (i * ny + sy.i) * c_n;
    for (size_t c = 0; c < c_n; ++c) {
      column[i * c_n + c] =
          sy(z_[at + c], z_[at + c_n + c], mz_[at + c], mz_[at + c_n + c]);
    }
  }

  const SplineSegment sx = x_.segment(x);
  x_.second_derivatives(column, c_n, m, sx.i);
  const size_t at = sx.i * c_n;
  for (size_t c = 0; c < c_n; ++c) {
    out[c] = sx(column[at + c], column[at + c_n + c], m[at + c], m[at + c_n + c]);
  }
}

}  // namespace ota::linalg
