// Algorithm 1 tests: exact recovery on self-consistent parameters, noise
// robustness, and the scan fallback for partially observed devices.
#include "lut/width_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ota::lut {
namespace {

class WidthEstimatorTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
  device::MosModel nmos{tech.nmos};
  DeviceLut lut{nmos};

  PredictedParams params_at(double vgs, double vds, double w) const {
    const auto ss = nmos.evaluate(vgs, vds, w, 180e-9);
    PredictedParams p;
    p.gm = ss.gm;
    p.gds = ss.gds;
    p.cds = ss.cds;
    p.cgs = ss.cgs;
    p.id = ss.id;
    return p;
  }
};

TEST_F(WidthEstimatorTest, RecoversWidthFromConsistentParameters) {
  for (double w : {0.7e-6, 2e-6, 8e-6, 25e-6, 50e-6}) {
    for (double vgs : {0.42, 0.55, 0.75}) {
      const auto est = estimate_width(lut, params_at(vgs, 0.61, w), tech.vdd);
      ASSERT_TRUE(est.has_value()) << "w=" << w << " vgs=" << vgs;
      EXPECT_NEAR(est->width, w, w * 0.02) << "w=" << w << " vgs=" << vgs;
      EXPECT_NEAR(est->vgs, vgs, 0.02);
    }
  }
}

TEST_F(WidthEstimatorTest, RecoversOperatingVds) {
  const double w = 5e-6, vgs = 0.55, vds = 0.84;
  const auto est = estimate_width(lut, params_at(vgs, vds, w), tech.vdd);
  ASSERT_TRUE(est.has_value());
  // The candidate widths only agree at the true Vds (Cds depends on it).
  EXPECT_NEAR(est->vds, vds, 0.05);
  EXPECT_LT(est->cost, w * 0.1);
}

TEST_F(WidthEstimatorTest, ToleratesNoisyPredictions) {
  // The transformer's predictions carry a few percent error; the consensus
  // across five ratios should keep the width within ~10%.
  Rng rng(123);
  const double w = 10e-6;
  for (int trial = 0; trial < 20; ++trial) {
    PredictedParams p = params_at(0.5, 0.6, w);
    auto jitter = [&rng](std::optional<double>& v) {
      *v *= 1.0 + rng.normal(0.0, 0.03);
    };
    jitter(p.gm);
    jitter(p.gds);
    jitter(p.cds);
    jitter(p.cgs);
    jitter(p.id);
    const auto est = estimate_width(lut, p, tech.vdd);
    ASSERT_TRUE(est.has_value());
    EXPECT_NEAR(est->width, w, w * 0.15) << "trial " << trial;
  }
}

TEST_F(WidthEstimatorTest, RequiresGmAndId) {
  PredictedParams p = params_at(0.5, 0.6, 5e-6);
  p.id.reset();
  EXPECT_THROW((void)estimate_width(lut, p, tech.vdd), ota::InvalidArgument);
  PredictedParams q = params_at(0.5, 0.6, 5e-6);
  q.gm.reset();
  EXPECT_THROW((void)estimate_width(lut, q, tech.vdd), ota::InvalidArgument);
}

TEST_F(WidthEstimatorTest, RejectsUnachievableGmId) {
  PredictedParams p = params_at(0.5, 0.6, 5e-6);
  // gm/Id of 60 /V is beyond the weak-inversion ceiling (~30 /V).
  p.gm = *p.id * 60.0;
  EXPECT_FALSE(estimate_width(lut, p, tech.vdd).has_value());
}

TEST_F(WidthEstimatorTest, ScanFallbackRecoversWidthWithoutId) {
  // A tail device's gm/Cgs do not appear in the differential DP-SFG; the
  // scan variant recovers W from {gds, Cds} (+gm here for stability).
  for (double w : {1e-6, 6e-6, 20e-6}) {
    PredictedParams p = params_at(0.5, 0.45, w);
    p.id.reset();
    const auto est = estimate_width_scan(lut, p);
    ASSERT_TRUE(est.has_value()) << w;
    EXPECT_NEAR(est->width, w, w * 0.05) << w;
  }
}

TEST_F(WidthEstimatorTest, ScanFallbackWithTwoParameters) {
  const double w = 8e-6;
  PredictedParams full = params_at(0.48, 0.52, w);
  PredictedParams p;
  p.gds = full.gds;
  p.cds = full.cds;
  const auto est = estimate_width_scan(lut, p);
  ASSERT_TRUE(est.has_value());
  // Two ratios constrain W more loosely; accept 25%.
  EXPECT_NEAR(est->width, w, w * 0.25);
}

TEST_F(WidthEstimatorTest, ScanNeedsAtLeastTwoParameters) {
  PredictedParams p;
  p.gm = 1e-3;
  EXPECT_THROW((void)estimate_width_scan(lut, p), ota::InvalidArgument);
}

TEST_F(WidthEstimatorTest, NonPositiveInputsThrow) {
  PredictedParams p = params_at(0.5, 0.6, 5e-6);
  p.gm = -1e-3;
  EXPECT_THROW((void)estimate_width(lut, p, tech.vdd), ota::InvalidArgument);
}

TEST_F(WidthEstimatorTest, NonFiniteInputsThrow) {
  // A NaN gm used to slip past the positivity check and come back as an
  // engaged zero-width estimate; every non-finite field now throws, in
  // Algorithm 1 and in the scan fallback alike.
  const double bad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  std::optional<double> PredictedParams::*fields[] = {
      &PredictedParams::gm, &PredictedParams::gds, &PredictedParams::cds,
      &PredictedParams::cgs, &PredictedParams::id};
  for (double v : bad) {
    for (auto field : fields) {
      PredictedParams p = params_at(0.5, 0.6, 5e-6);
      p.*field = v;
      EXPECT_THROW((void)estimate_width(lut, p, tech.vdd), ota::InvalidArgument) << v;
      EXPECT_THROW((void)estimate_width_scan(lut, p), ota::InvalidArgument) << v;
    }
  }
}

class WidthRoundTrip : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WidthRoundTrip, AcrossBiasAndWidth) {
  const auto tech = device::Technology::default65nm();
  const device::MosModel nmos{tech.nmos};
  const DeviceLut lut{nmos};
  const auto [vgs, w] = GetParam();
  const auto ss = nmos.evaluate(vgs, 0.66, w, 180e-9);
  PredictedParams p;
  p.gm = ss.gm;
  p.gds = ss.gds;
  p.cds = ss.cds;
  p.cgs = ss.cgs;
  p.id = ss.id;
  const auto est = estimate_width(lut, p, tech.vdd);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->width, w, w * 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WidthRoundTrip,
    ::testing::Combine(::testing::Values(0.40, 0.50, 0.62, 0.80),
                       ::testing::Values(0.7e-6, 3e-6, 12e-6, 50e-6)));

}  // namespace
}  // namespace ota::lut
