// Device-LUT tests (paper Fig. 5): interpolation accuracy against direct
// model evaluation, per-unit-width storage, gm/Id inversion.
#include "lut/device_lut.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/error.hpp"
#include "lut/width_estimator.hpp"

// Sanitizer builds replace the allocator; skip the allocation-counting
// override there and keep the behavioural assertions.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OTA_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OTA_TEST_SANITIZED 1
#endif
#endif

#ifndef OTA_TEST_SANITIZED
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// Counting global allocator: lets LookupsAreAllocationFree assert that LUT
// queries and both width estimators perform zero heap allocations.  The
// default operator new[] forwards here, so scalar overrides cover arrays.
// All three stay out of line: inlined into gtest's registration code, GCC 12
// pairs the malloc() and free() inside them with the new/delete expressions
// there and reports a mismatch that is not one.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace ota::lut {
namespace {

class LutTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
  device::MosModel nmos{tech.nmos};
  device::MosModel pmos{tech.pmos};
  DeviceLut lut{nmos};
  DeviceLut plut{pmos};
};

TEST_F(LutTest, GridShapeMatchesPaper) {
  // 0-1.2 V in 60 mV steps -> 21 points per axis.
  EXPECT_EQ(lut.vgs_axis().size(), 21u);
  EXPECT_EQ(lut.vds_axis().size(), 21u);
  EXPECT_DOUBLE_EQ(lut.options().wref, 700e-9);
  EXPECT_DOUBLE_EQ(lut.options().l, 180e-9);
}

TEST_F(LutTest, GridEntriesMatchModelAtKnots) {
  const auto& vg = lut.vgs_axis();
  const auto& vd = lut.vds_axis();
  for (size_t i = 0; i < vg.size(); i += 5) {
    for (size_t j = 0; j < vd.size(); j += 5) {
      const auto e = lut.grid_entry(i, j);
      const auto ss = nmos.evaluate(vg[i], vd[j], 700e-9, 180e-9);
      EXPECT_NEAR(e.id, ss.id / 700e-9, std::fabs(ss.id / 700e-9) * 1e-12);
      EXPECT_NEAR(e.gm, ss.gm / 700e-9, std::fabs(ss.gm / 700e-9) * 1e-12);
    }
  }
}

TEST_F(LutTest, LookupAtEveryKnotEqualsGridEntry) {
  const auto& vg = lut.vgs_axis();
  const auto& vd = lut.vds_axis();
  for (size_t i = 0; i < vg.size(); ++i) {
    for (size_t j = 0; j < vd.size(); ++j) {
      const LutEntry e = lut.lookup(vg[i], vd[j]);
      const LutEntry g = lut.grid_entry(i, j);
      EXPECT_EQ(e.id, g.id) << i << "," << j;
      EXPECT_EQ(e.gm, g.gm) << i << "," << j;
      EXPECT_EQ(e.gds, g.gds) << i << "," << j;
      EXPECT_EQ(e.cds, g.cds) << i << "," << j;
      EXPECT_EQ(e.cgs, g.cgs) << i << "," << j;
    }
  }
}

TEST_F(LutTest, LookupsAreAllocationFree) {
  const auto ss = nmos.evaluate(0.55, 0.6, 4e-6, 180e-9);
  PredictedParams full;
  full.gm = ss.gm;
  full.gds = ss.gds;
  full.cds = ss.cds;
  full.cgs = ss.cgs;
  full.id = ss.id;
  PredictedParams no_id = full;
  no_id.id.reset();
  // Warm-up: the first query on a thread sizes its evaluation scratch.
  (void)lut.lookup(0.5, 0.5);
#ifndef OTA_TEST_SANITIZED
  const uint64_t before = g_alloc_count.load();
#endif
  double sink = 0.0;
  for (int k = 0; k < 1000; ++k) {
    sink += lut.lookup(0.3 + 0.0007 * k, 1.1 - 0.0009 * k).gm;
  }
  const auto est = estimate_width(lut, full, tech.vdd);
  const auto scan = estimate_width_scan(lut, no_id);
#ifndef OTA_TEST_SANITIZED
  EXPECT_EQ(g_alloc_count.load(), before);
#endif
  EXPECT_GT(sink, 0.0);
  ASSERT_TRUE(est.has_value());
  ASSERT_TRUE(scan.has_value());
  EXPECT_NEAR(est->width, 4e-6, 4e-6 * 0.02);
  EXPECT_NEAR(scan->width, 4e-6, 4e-6 * 0.05);
}

TEST_F(LutTest, ScanColumnLookupsEqualDirectLookups) {
  // A lookup on a precomputed scan column must be the very bits of the
  // direct lookup at that Vds: on and between Vgs knots and clamped outside
  // the window, for both polarities.
  for (const DeviceLut* l : {&lut, &plut}) {
    ASSERT_EQ(l->scan_vds().size(), 121u);
    EXPECT_EQ(l->scan_vds().front(), l->vds_axis().front());
    EXPECT_EQ(l->scan_vds().back(), l->vds_axis().back());
    std::vector<double> vgs = l->vgs_axis();
    for (double v : {-0.3, -1e-12, 0.013, 0.47, 0.6001, 1.19, 1.2 + 1e-12, 1.7}) {
      vgs.push_back(v);
    }
    for (size_t k = 0; k < l->scan_vds().size(); ++k) {
      for (double v : vgs) {
        const LutEntry want = l->lookup(v, l->scan_vds()[k]);
        const LutEntry got = l->lookup_scan(v, k);
        ASSERT_EQ(std::memcmp(&want, &got, sizeof(LutEntry)), 0)
            << "vgs " << v << " scan point " << k;
      }
    }
    EXPECT_THROW((void)l->lookup_scan(0.5, l->scan_vds().size()), ota::InvalidArgument);
  }
}

TEST_F(LutTest, WidthEstimatesMatchPinnedReference) {
  // Hexfloats captured before the scan read precomputed columns; any change
  // to the spline arithmetic or the scan grid moves them.
  const auto params = [&](const device::MosModel& m, double vgs, double vds, double w) {
    const auto ss = m.evaluate(vgs, vds, w, 180e-9);
    PredictedParams p;
    p.gm = ss.gm;
    p.gds = ss.gds;
    p.cds = ss.cds;
    p.cgs = ss.cgs;
    p.id = ss.id;
    return p;
  };
  const auto expect_bits = [](const std::optional<WidthEstimate>& e, double width,
                              double vgs, double vds) {
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->width, width);
    EXPECT_EQ(e->vgs, vgs);
    EXPECT_EQ(e->vds, vds);
  };
  expect_bits(estimate_width(lut, params(nmos, 0.55, 0.6, 4e-6), tech.vdd),
              0x1.0c6f1d9a617b3p-18, 0x1.1999b7259999ap-1, 0x1.3333333333333p-1);
  expect_bits(estimate_width(plut, params(pmos, 0.7, 0.5, 10e-6), tech.vdd),
              0x1.4f8a485214593p-17, 0x1.666717b266668p-1, 0x1p-1);
  PredictedParams no_id = params(nmos, 0.55, 0.6, 4e-6);
  no_id.id.reset();
  expect_bits(estimate_width_scan(lut, no_id), 0x1.0e10061074b3bp-18,
              0x1.1851eb851eb83p-1, 0x1.3851eb851eb85p-1);
  PredictedParams no_gm = params(pmos, 0.7, 0.5, 10e-6);
  no_gm.gm.reset();
  expect_bits(estimate_width_scan(plut, no_gm), 0x1.545cc6bebe411p-17,
              0x1.651eb851eb84fp-1, 0x1.051eb851eb852p-1);
}

TEST_F(LutTest, InterpolationAccuracyOffGrid) {
  // Paper claim: coarse grid + cubic splines gives accurate intermediate
  // values.  Check against the analytic model at off-grid points in the
  // conducting regime.
  double worst = 0.0;
  for (double vgs = 0.33; vgs <= 1.15; vgs += 0.037) {
    for (double vds = 0.21; vds <= 1.15; vds += 0.043) {
      const LutEntry e = lut.lookup(vgs, vds);
      const auto ss = nmos.evaluate(vgs, vds, 700e-9, 180e-9);
      const double ref = ss.gm / 700e-9;
      if (ref > 1e-3) {  // meaningful conduction only
        worst = std::max(worst, std::fabs(e.gm - ref) / ref);
      }
    }
  }
  EXPECT_LT(worst, 0.01);  // < 1% interpolation error
}

TEST_F(LutTest, LookupClampsOutsideWindow) {
  const LutEntry inside = lut.lookup(1.2, 1.2);
  const LutEntry beyond = lut.lookup(2.0, 3.0);
  EXPECT_DOUBLE_EQ(inside.gm, beyond.gm);
}

TEST_F(LutTest, WidthScalingRoundTrip) {
  // For any W, model outputs == W * per-unit-width LUT outputs (within
  // interpolation error): the property that justifies Wref storage.
  for (double w : {0.7e-6, 5e-6, 50e-6}) {
    const auto ss = nmos.evaluate(0.52, 0.63, w, 180e-9);
    const LutEntry e = lut.lookup(0.52, 0.63);
    EXPECT_NEAR(ss.gm, e.gm * w, ss.gm * 0.01);
    EXPECT_NEAR(ss.id, e.id * w, ss.id * 0.01);
    EXPECT_NEAR(ss.cgs, e.cgs * w, ss.cgs * 0.01);
  }
}

TEST_F(LutTest, GmIdRangeIsSane) {
  const auto [lo, hi] = lut.gmid_range(0.6);
  // Weak-inversion ceiling ~ 1/(n*phi_t) ~ 29.7 /V; strong inversion a few /V.
  EXPECT_GT(hi, 20.0);
  EXPECT_LT(hi, 35.0);
  EXPECT_GT(lo, 0.5);
  EXPECT_LT(lo, 8.0);
}

TEST_F(LutTest, FindVgsForGmidInvertsCorrectly) {
  for (double gmid : {5.0, 10.0, 15.0, 20.0, 25.0}) {
    const auto vgs = lut.find_vgs_for_gmid(gmid, 0.6);
    ASSERT_TRUE(vgs.has_value()) << gmid;
    const LutEntry e = lut.lookup(*vgs, 0.6);
    EXPECT_NEAR(e.gm / e.id, gmid, gmid * 1e-3) << "gmid=" << gmid;
  }
}

TEST_F(LutTest, FindVgsRejectsOutOfRange) {
  EXPECT_FALSE(lut.find_vgs_for_gmid(100.0, 0.6).has_value());
  EXPECT_FALSE(lut.find_vgs_for_gmid(0.01, 0.6).has_value());
  EXPECT_FALSE(lut.find_vgs_for_gmid(-5.0, 0.6).has_value());
}

TEST_F(LutTest, PmosLutBehavesLikeNmosLut) {
  const LutEntry e = plut.lookup(0.6, 0.6);
  EXPECT_GT(e.id, 0.0);
  EXPECT_GT(e.gm, 0.0);
  // PMOS mobility is lower: less current per width than NMOS at equal bias.
  const LutEntry n = lut.lookup(0.6, 0.6);
  EXPECT_LT(e.id, n.id);
}

TEST_F(LutTest, BadOptionsThrow) {
  LutOptions bad;
  bad.v_step = 0.0;
  EXPECT_THROW((void)DeviceLut(nmos, bad), ota::InvalidArgument);
  LutOptions inverted;
  inverted.v_min = 1.0;
  inverted.v_max = 0.0;
  EXPECT_THROW((void)DeviceLut(nmos, inverted), ota::InvalidArgument);
  // One scan point would divide 0 by 0 and scan a NaN Vds.
  for (int points : {1, 0, -4}) {
    LutOptions sparse;
    sparse.vds_scan_points = points;
    EXPECT_THROW((void)DeviceLut(nmos, sparse), ota::InvalidArgument) << points;
  }
  LutOptions two;
  two.vds_scan_points = 2;
  const DeviceLut coarse(nmos, two);
  EXPECT_EQ(coarse.scan_vds(), (std::vector<double>{0.0, 1.2}));
}

class LutGmIdSweep : public ::testing::TestWithParam<double> {};

TEST_P(LutGmIdSweep, GmIdWidthIndependenceThroughLut) {
  // The LUT's gm/Id at any bias equals the model's gm/Id at any width.
  const auto tech = device::Technology::default65nm();
  const device::MosModel nmos{tech.nmos};
  const DeviceLut lut{nmos};
  const double vgs = GetParam();
  const LutEntry e = lut.lookup(vgs, 0.6);
  for (double w : {0.7e-6, 7e-6, 49e-6}) {
    const auto ss = nmos.evaluate(vgs, 0.6, w, 180e-9);
    EXPECT_NEAR(ss.gm / ss.id, e.gm / e.id, (e.gm / e.id) * 0.01) << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Biases, LutGmIdSweep,
                         ::testing::Values(0.3, 0.4, 0.5, 0.65, 0.8, 1.0));

}  // namespace
}  // namespace ota::lut
