// Cubic-spline tests: exactness, smoothness, and the LUT interpolation
// accuracy the paper relies on (Section III-D.1).
#include "linalg/spline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ota::linalg {
namespace {

TEST(CubicSpline1D, InterpolatesKnotsExactly) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  std::vector<double> y{1.0, 2.0, 0.0, 5.0};
  CubicSpline1D s(x, y);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s(x[i]), y[i], 1e-12);
  }
}

TEST(CubicSpline1D, TwoPointsIsLinear) {
  CubicSpline1D s({0.0, 2.0}, {1.0, 5.0});
  EXPECT_NEAR(s(1.0), 3.0, 1e-12);
  EXPECT_NEAR(s(0.5), 2.0, 1e-12);
  EXPECT_NEAR(s.derivative(1.3), 2.0, 1e-12);
}

TEST(CubicSpline1D, ReproducesLinearFunctionExactly) {
  // Natural splines reproduce degree-1 polynomials exactly.
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    x.push_back(0.1 * i);
    y.push_back(3.0 * x.back() - 0.5);
  }
  CubicSpline1D s(x, y);
  for (double q = 0.0; q <= 1.0; q += 0.013) {
    EXPECT_NEAR(s(q), 3.0 * q - 0.5, 1e-12);
  }
}

TEST(CubicSpline1D, SmoothFunctionAccuracy) {
  // 60 mV-style grid over a smooth exponential-ish curve: mid-segment error
  // should be far below the sample spacing effect (paper's justification for
  // the coarse LUT grid + spline).
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) {
    x.push_back(0.06 * i);
    y.push_back(std::exp(x.back()));
  }
  CubicSpline1D s(x, y);
  double max_rel = 0.0;
  for (double q = 0.0; q <= 1.2; q += 0.007) {
    max_rel = std::max(max_rel, std::fabs(s(q) - std::exp(q)) / std::exp(q));
  }
  // Natural boundary conditions limit edge accuracy; interior error is lower.
  EXPECT_LT(max_rel, 5e-4);
}

TEST(CubicSpline1D, DerivativeMatchesFiniteDifference) {
  std::vector<double> x, y;
  for (int i = 0; i <= 15; ++i) {
    x.push_back(0.1 * i);
    y.push_back(std::sin(x.back()));
  }
  CubicSpline1D s(x, y);
  const double h = 1e-6;
  for (double q = 0.1; q < 1.4; q += 0.11) {
    const double fd = (s(q + h) - s(q - h)) / (2.0 * h);
    EXPECT_NEAR(s.derivative(q), fd, 1e-6);
  }
}

TEST(CubicSpline1D, Validation) {
  EXPECT_THROW(CubicSpline1D({1.0}, {1.0}), InvalidArgument);
  EXPECT_THROW(CubicSpline1D({0.0, 0.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(CubicSpline1D({1.0, 0.5}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(CubicSpline1D({0.0, 1.0}, {1.0}), InvalidArgument);
}

TEST(BicubicSpline, InterpolatesGridExactly) {
  std::vector<double> x{0.0, 1.0, 2.0};
  std::vector<double> y{0.0, 0.5, 1.0, 1.5};
  MatrixD z(3, 4);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j) z(i, j) = static_cast<double>(i * 10 + j);
  BicubicSpline s(x, y, z);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(s(x[i], y[j]), z(i, j), 1e-10);
}

TEST(BicubicSpline, BilinearFunctionReproduced) {
  std::vector<double> x, y;
  for (int i = 0; i <= 8; ++i) x.push_back(0.15 * i);
  for (int j = 0; j <= 6; ++j) y.push_back(0.2 * j);
  MatrixD z(x.size(), y.size());
  auto f = [](double a, double b) { return 2.0 * a - 3.0 * b + 0.5 * a * b; };
  for (size_t i = 0; i < x.size(); ++i)
    for (size_t j = 0; j < y.size(); ++j) z(i, j) = f(x[i], y[j]);
  BicubicSpline s(x, y, z);
  for (double a = 0.0; a <= 1.2; a += 0.07)
    for (double b = 0.0; b <= 1.2; b += 0.09)
      EXPECT_NEAR(s(a, b), f(a, b), 1e-9) << a << "," << b;
}

TEST(BicubicSpline, SmoothSurfaceAccuracy) {
  // Emulates the 21x21 LUT grid of the paper (0..1.2 V, 60 mV step).
  std::vector<double> x, y;
  for (int i = 0; i <= 20; ++i) x.push_back(0.06 * i);
  y = x;
  auto f = [](double vgs, double vds) {
    return std::log1p(std::exp(8.0 * (vgs - 0.35))) * (1.0 + 0.4 * vds);
  };
  MatrixD z(x.size(), y.size());
  for (size_t i = 0; i < x.size(); ++i)
    for (size_t j = 0; j < y.size(); ++j) z(i, j) = f(x[i], y[j]);
  BicubicSpline s(x, y, z);
  double max_err = 0.0;
  for (double a = 0.0; a <= 1.2; a += 0.017)
    for (double b = 0.0; b <= 1.2; b += 0.019)
      max_err = std::max(max_err, std::fabs(s(a, b) - f(a, b)));
  EXPECT_LT(max_err, 2e-3);
}

TEST(BicubicSpline, ClampsOutsideGrid) {
  std::vector<double> x{0.0, 1.0};
  std::vector<double> y{0.0, 1.0};
  MatrixD z(2, 2);
  z(0, 0) = 0.0; z(0, 1) = 1.0; z(1, 0) = 2.0; z(1, 1) = 3.0;
  BicubicSpline s(x, y, z);
  EXPECT_NEAR(s(-5.0, -5.0), z(0, 0), 1e-12);
  EXPECT_NEAR(s(5.0, 5.0), z(1, 1), 1e-12);
}

TEST(BicubicSpline, GridMismatchThrows) {
  MatrixD z(2, 3);
  EXPECT_THROW(BicubicSpline({0.0, 1.0}, {0.0, 1.0}, z), InvalidArgument);
  // Every channel must match the axes, and there must be at least one.
  EXPECT_THROW(BicubicSpline({0.0, 1.0}, {0.0, 1.0, 2.0},
                             std::vector<MatrixD>{z, MatrixD(2, 2)}),
               InvalidArgument);
  EXPECT_THROW(BicubicSpline({0.0, 1.0}, {0.0, 1.0}, std::vector<MatrixD>{}),
               InvalidArgument);
}

TEST(BicubicSpline, AxesAreValidatedAtConstruction) {
  EXPECT_THROW(BicubicSpline({0.0}, {0.0, 1.0}, MatrixD(1, 2)), InvalidArgument);
  EXPECT_THROW(BicubicSpline({0.0, 1.0}, {1.0, 1.0}, MatrixD(2, 2)), InvalidArgument);
  EXPECT_THROW(BicubicSpline({1.0, 0.0}, {0.0, 1.0}, MatrixD(2, 2)), InvalidArgument);
}

TEST(BicubicSpline, ScalarEvaluationNeedsOneChannel) {
  const BicubicSpline two({0.0, 1.0}, {0.0, 1.0},
                          std::vector<MatrixD>{MatrixD(2, 2), MatrixD(2, 2)});
  EXPECT_THROW((void)two(0.5, 0.5), InvalidArgument);
  double one[1];
  EXPECT_THROW(two.evaluate(0.5, 0.5, one), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Bit-identity oracle.  The reference below is the original evaluation: a
// natural cubic spline solved per call with the Thomas algorithm, one such
// spline per grid row along y, and a fresh spline along x through the row
// values for every query.  The precomputed, allocation-free BicubicSpline
// (and CubicSpline1D on SplineAxis) must match it bit for bit.

class ReferenceSpline1D {
 public:
  ReferenceSpline1D(std::vector<double> x, std::vector<double> y)
      : x_(std::move(x)), y_(std::move(y)) {
    const size_t n = x_.size();
    m_.assign(n, 0.0);
    if (n == 2) return;
    std::vector<double> h(n - 1);
    for (size_t i = 0; i + 1 < n; ++i) h[i] = x_[i + 1] - x_[i];
    std::vector<double> diag(n - 2), rhs(n - 2), upper(n - 2);
    for (size_t i = 1; i + 1 < n; ++i) {
      diag[i - 1] = 2.0 * (h[i - 1] + h[i]);
      rhs[i - 1] = 6.0 * ((y_[i + 1] - y_[i]) / h[i] - (y_[i] - y_[i - 1]) / h[i - 1]);
      upper[i - 1] = h[i];
    }
    for (size_t i = 1; i < diag.size(); ++i) {
      const double w = h[i] / diag[i - 1];
      diag[i] -= w * upper[i - 1];
      rhs[i] -= w * rhs[i - 1];
    }
    for (size_t ii = diag.size(); ii-- > 0;) {
      double acc = rhs[ii];
      if (ii + 1 < diag.size()) acc -= upper[ii] * m_[ii + 2];
      m_[ii + 1] = acc / diag[ii];
    }
  }

  double operator()(double x) const {
    auto it = std::upper_bound(x_.begin(), x_.end(), x);
    size_t i = 0;
    if (it != x_.begin()) {
      i = std::min(static_cast<size_t>(it - x_.begin()) - 1, x_.size() - 2);
    }
    const double h = x_[i + 1] - x_[i];
    const double a = (x_[i + 1] - x) / h;
    const double b = (x - x_[i]) / h;
    return a * y_[i] + b * y_[i + 1] +
           ((a * a * a - a) * m_[i] + (b * b * b - b) * m_[i + 1]) * h * h / 6.0;
  }

 private:
  std::vector<double> x_, y_, m_;
};

double reference_bicubic(const std::vector<double>& x, const std::vector<double>& y,
                         const MatrixD& z, double qx, double qy) {
  qx = std::clamp(qx, x.front(), x.back());
  qy = std::clamp(qy, y.front(), y.back());
  std::vector<double> column(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    std::vector<double> row(y.size());
    for (size_t j = 0; j < y.size(); ++j) row[j] = z(i, j);
    column[i] = ReferenceSpline1D(y, std::move(row))(qy);
  }
  return ReferenceSpline1D(x, std::move(column))(qx);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Strictly increasing, deliberately non-uniform knots.
std::vector<double> random_knots(Rng& rng, size_t n) {
  std::vector<double> k{rng.uniform(-1.0, 1.0)};
  while (k.size() < n) k.push_back(k.back() + rng.log_uniform(1e-3, 0.5));
  return k;
}

// Queries on every knot, strictly inside every segment, and outside the
// range on both sides.
std::vector<double> probe_points(Rng& rng, const std::vector<double>& k) {
  std::vector<double> q(k);
  for (size_t i = 0; i + 1 < k.size(); ++i) {
    q.push_back(k[i] + rng.uniform(0.01, 0.99) * (k[i + 1] - k[i]));
  }
  const double span = k.back() - k.front();
  q.push_back(k.front() - rng.uniform(0.01, 1.0) * span);
  q.push_back(k.back() + rng.uniform(0.01, 1.0) * span);
  return q;
}

TEST(SplineOracle, CubicSpline1DMatchesReferenceBitwise) {
  Rng rng(17);
  for (size_t n : {2u, 3u, 21u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto x = random_knots(rng, n);
      std::vector<double> y(n);
      for (double& v : y) v = rng.uniform(-1e-3, 1e-3) * rng.log_uniform(1e-6, 1e6);
      const CubicSpline1D s(x, y);
      const ReferenceSpline1D ref(x, y);
      for (double q : probe_points(rng, x)) {
        EXPECT_TRUE(same_bits(s(q), ref(q))) << "n=" << n << " q=" << q;
      }
    }
  }
}

TEST(SplineOracle, BicubicMatchesReferenceBitwise) {
  Rng rng(23);
  for (size_t nx : {2u, 3u, 21u}) {
    for (size_t ny : {2u, 3u, 21u}) {
      for (int trial = 0; trial < 4; ++trial) {
        const auto x = random_knots(rng, nx);
        const auto y = random_knots(rng, ny);
        MatrixD z(nx, ny);
        for (size_t i = 0; i < nx; ++i) {
          for (size_t j = 0; j < ny; ++j) {
            z(i, j) = rng.uniform(-1.0, 1.0) * rng.log_uniform(1e-9, 1e3);
          }
        }
        const BicubicSpline s(x, y, z);
        for (double qx : probe_points(rng, x)) {
          for (double qy : probe_points(rng, y)) {
            const double got = s(qx, qy);
            const double want = reference_bicubic(x, y, z, qx, qy);
            ASSERT_TRUE(same_bits(got, want))
                << "nx=" << nx << " ny=" << ny << " (" << qx << ", " << qy
                << "): " << got << " vs " << want;
          }
        }
      }
    }
  }
}

TEST(SplineOracle, ColumnsMatchReferenceBitwise) {
  // A column built once at qy answers every qx with the reference's bits,
  // whichever segment the query falls in.
  Rng rng(31);
  for (size_t nx : {2u, 3u, 21u}) {
    for (size_t ny : {2u, 3u, 21u}) {
      const auto x = random_knots(rng, nx);
      const auto y = random_knots(rng, ny);
      std::vector<MatrixD> channels(2, MatrixD(nx, ny));
      for (auto& z : channels) {
        for (size_t i = 0; i < nx; ++i) {
          for (size_t j = 0; j < ny; ++j) z(i, j) = rng.normal(0.0, 1.0);
        }
      }
      const BicubicSpline s(x, y, channels);
      ASSERT_EQ(s.column_size(), 2 * nx * 2);
      double out[2];
      for (double qy : probe_points(rng, y)) {
        const auto view = s.column(qy);
        const std::vector<double> column(view.begin(), view.end());
        for (double qx : probe_points(rng, x)) {
          s.evaluate_column(column, qx, out);
          for (size_t c = 0; c < 2; ++c) {
            ASSERT_TRUE(same_bits(out[c], reference_bicubic(x, y, channels[c], qx, qy)))
                << "nx=" << nx << " ny=" << ny << " (" << qx << ", " << qy << ")";
          }
        }
      }
      const std::vector<double> short_column(s.column_size() - 1);
      EXPECT_THROW(s.evaluate_column(short_column, x.front(), out), InvalidArgument);
    }
  }
}

TEST(SplineOracle, EveryChannelMatchesReferenceBitwise) {
  // A multi-channel spline evaluates each channel exactly as a lone
  // single-channel spline over the same axes would.
  Rng rng(29);
  const auto x = random_knots(rng, 21);
  const auto y = random_knots(rng, 13);
  std::vector<MatrixD> channels(5, MatrixD(x.size(), y.size()));
  for (auto& z : channels) {
    for (size_t i = 0; i < x.size(); ++i) {
      for (size_t j = 0; j < y.size(); ++j) z(i, j) = rng.normal(0.0, 1.0);
    }
  }
  const BicubicSpline s(x, y, channels);
  ASSERT_EQ(s.channels(), 5u);
  double out[5];
  for (double qx : probe_points(rng, x)) {
    for (double qy : probe_points(rng, y)) {
      s.evaluate(qx, qy, out);
      for (size_t c = 0; c < channels.size(); ++c) {
        const double want = reference_bicubic(x, y, channels[c], qx, qy);
        ASSERT_TRUE(same_bits(out[c], want)) << "channel " << c;
      }
    }
  }
  for (size_t i = 0; i < x.size(); ++i) {
    for (size_t j = 0; j < y.size(); ++j) {
      for (size_t c = 0; c < channels.size(); ++c) {
        EXPECT_EQ(s.sample(i, j, c), channels[c](i, j));
      }
    }
  }
}

}  // namespace
}  // namespace ota::linalg
