// Batched AC sweep engine tests.
//
// Three property groups:
//  * AcSweepTest — the batch path is THE path: sweep()/transfer_sweep()
//    agree bit-for-bit with per-point solve()/transfer() loops.
//  * DeterminismTest — thread count is a pure performance knob for sweeps
//    (the fixture name opts these tests into the TSan CI gate alongside the
//    dataset/training determinism suites).
//  * LuMultiRhs — the LU's reusable buffers: solve_into into a caller-owned
//    vector and factor_swap's recycled storage.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/rng.hpp"
#include "linalg/lu.hpp"
#include "spice/measure.hpp"

namespace ota::spice {
namespace {

using Cplx = std::complex<double>;

std::vector<double> log_grid(double f_lo, double f_hi, int points) {
  std::vector<double> freqs;
  const double ratio = std::pow(f_hi / f_lo, 1.0 / (points - 1));
  double f = f_lo;
  for (int i = 0; i < points; ++i, f *= ratio) freqs.push_back(f);
  return freqs;
}

// A sized 5T-OTA analysis (widths known to bias correctly from test_ac).
AcAnalysis make_ota_analysis(circuit::Topology& topo,
                             const device::Technology& tech) {
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  const DcSolution dc = solve_dc(topo.netlist, tech);
  return AcAnalysis(topo.netlist, tech, dc);
}

void expect_bit_identical(const std::vector<std::vector<Cplx>>& a,
                          const std::vector<std::vector<Cplx>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "point " << i;
    for (size_t n = 0; n < a[i].size(); ++n) {
      EXPECT_EQ(a[i][n].real(), b[i][n].real()) << "point " << i << " node " << n;
      EXPECT_EQ(a[i][n].imag(), b[i][n].imag()) << "point " << i << " node " << n;
    }
  }
}

class AcSweepTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(AcSweepTest, SweepMatchesPerPointSolveBitIdentical) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const auto freqs = log_grid(1.0, 1e10, 40);

  const auto batched = ac.sweep(freqs);
  std::vector<std::vector<Cplx>> looped;
  for (double f : freqs) looped.push_back(ac.solve(f));
  expect_bit_identical(batched, looped);
}

TEST_F(AcSweepTest, TransferSweepMatchesPerPointTransferBitIdentical) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const auto freqs = log_grid(10.0, 1e9, 33);

  const auto batched = ac.transfer_sweep(freqs, "vout");
  ASSERT_EQ(batched.size(), freqs.size());
  for (size_t i = 0; i < freqs.size(); ++i) {
    const Cplx single = ac.transfer(freqs[i], "vout");
    EXPECT_EQ(batched[i].real(), single.real()) << "point " << i;
    EXPECT_EQ(batched[i].imag(), single.imag()) << "point " << i;
  }
}

TEST_F(AcSweepTest, RcSweepMatchesClosedForm) {
  circuit::Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "out", 1e3);
  nl.add_capacitor("C1", "out", "0", 1e-9);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);

  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);
  const auto freqs = log_grid(1e3, 1e8, 24);
  const auto h = ac.transfer_sweep(freqs, "out");
  for (size_t i = 0; i < freqs.size(); ++i) {
    const Cplx ref = 1.0 / Cplx(1.0, freqs[i] / fc);
    EXPECT_NEAR(std::abs(h[i] - ref), 0.0, 1e-9) << "f=" << freqs[i];
  }
}

TEST_F(AcSweepTest, TransferSweepOfGroundIsZero) {
  circuit::Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "0", 1e3);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  for (const Cplx& v : ac.transfer_sweep({1.0, 1e6}, "0")) {
    EXPECT_EQ(v, Cplx{});
  }
}

TEST_F(AcSweepTest, EmptySweepReturnsEmpty) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  EXPECT_TRUE(ac.sweep({}).empty());
  EXPECT_TRUE(ac.transfer_sweep({}, "vout").empty());
}

TEST_F(AcSweepTest, MeasureRejectsDegenerateScanConfig) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  MeasureOptions bad_f_low;
  bad_f_low.f_low = 0.0;  // the old lazy scan hung on this; now it throws
  EXPECT_THROW(measure_ac(ac, "vout", bad_f_low), InvalidArgument);
  MeasureOptions bad_density;
  bad_density.points_per_decade = 0;
  EXPECT_THROW(measure_ac(ac, "vout", bad_density), InvalidArgument);
  MeasureOptions bad_f_high;
  bad_f_high.f_high = std::numeric_limits<double>::infinity();
  EXPECT_THROW(measure_ac(ac, "vout", bad_f_high), InvalidArgument);
  MeasureOptions bad_rel_tol;
  bad_rel_tol.rel_tol = 0.0;  // bisection can never terminate below 1 ulp
  EXPECT_THROW(measure_ac(ac, "vout", bad_rel_tol), InvalidArgument);
}

TEST_F(AcSweepTest, MeasureUsesOneSweepAndMatchesLegacyShape) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const AcMetrics m = measure_ac(ac, "vout");
  // Table I neighborhood for the 5T-OTA at this arbitrary sizing.
  EXPECT_GT(m.gain_db, 10.0);
  EXPECT_LT(m.gain_db, 32.0);
  EXPECT_GT(m.ugf_hz, m.bw_3db_hz);
  EXPECT_GT(m.phase_margin_deg, 0.0);
  // The 3 dB point really is the 3 dB point on the batch path.
  const double h_bw = std::abs(ac.transfer(m.bw_3db_hz, "vout"));
  EXPECT_NEAR(h_bw, m.gain_linear / std::numbers::sqrt2,
              m.gain_linear * 1e-3);
}

// ---------------------------------------------------------------------------
// Thread-count bit-identity (the fixture name registers these under the
// DeterminismTest.* umbrella that the TSan preset/CI job selects).

class DeterminismTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(DeterminismTest, AcSweepBitIdenticalAcrossThreadCounts) {
  auto topo = circuit::make_5t_ota(tech);
  const AcAnalysis ac = make_ota_analysis(topo, tech);
  const auto freqs = log_grid(1.0, 1e11, 64);

  const auto serial = ac.sweep(freqs, 1);
  expect_bit_identical(serial, ac.sweep(freqs, 8));
  // An odd worker count chunks the grid differently but must agree too.
  expect_bit_identical(serial, ac.sweep(freqs, 3));
}

TEST_F(DeterminismTest, AcTransferSweepBitIdenticalAcrossThreadCounts) {
  auto topo = circuit::make_2s_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6, 12e-6, 3e-6});
  const DcSolution dc = solve_dc(topo.netlist, tech);
  const AcAnalysis ac(topo.netlist, tech, dc);
  const auto freqs = log_grid(1.0, 1e10, 48);

  const auto serial = ac.transfer_sweep(freqs, topo.output_node, 1);
  const auto par8 = ac.transfer_sweep(freqs, topo.output_node, 8);
  ASSERT_EQ(serial.size(), par8.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].real(), par8[i].real()) << "point " << i;
    EXPECT_EQ(serial[i].imag(), par8[i].imag()) << "point " << i;
  }
}

}  // namespace
}  // namespace ota::spice

// ---------------------------------------------------------------------------
// The reusable-buffer LU API the AC sweep runs on (suite name kept from when
// it also covered a multi-RHS solve).

namespace ota::linalg {
namespace {

Matrix<double> random_system(int n, uint64_t seed) {
  Rng rng(seed);
  Matrix<double> a(static_cast<size_t>(n), static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      a(static_cast<size_t>(r), static_cast<size_t>(c)) = rng.normal();
    }
    a(static_cast<size_t>(r), static_cast<size_t>(r)) += n;
  }
  return a;
}

TEST(LuMultiRhs, SolveIntoReusesCallerBuffers) {
  const Matrix<double> a = random_system(6, 7);
  const LuDecomposition<double> lu(a);

  std::vector<double> b(6, 1.0), x;
  lu.solve_into(b, x);
  const double* data_before = x.data();
  b[3] = -2.0;
  lu.solve_into(b, x);
  EXPECT_EQ(x.data(), data_before);  // same allocation, refreshed contents
  EXPECT_EQ(x, lu.solve(b));
}

TEST(LuMultiRhs, FactorSwapMatchesFactorAndRecyclesBuffers) {
  LuDecomposition<double> lu;
  const std::vector<double> b(7, 1.0);
  std::vector<const double*> buffers;
  Matrix<double> scratch;
  for (uint64_t seed : {21u, 22u, 23u}) {
    const Matrix<double> a = random_system(7, seed);
    scratch = a;  // reuses scratch's capacity after the first round trip
    const double* assembled = scratch.data().data();
    lu.factor_swap(scratch);
    buffers.push_back(assembled);
    EXPECT_EQ(lu.solve(b), LuDecomposition<double>(a).solve(b)) << seed;
  }
  // The swap recycles two buffers in steady state: the matrix assembled on
  // round k is the same allocation the decomposition held on round k-1.
  EXPECT_EQ(buffers[0], buffers[2]);
}

TEST(LuMultiRhs, RhsSizeMismatchThrows) {
  const LuDecomposition<double> lu(random_system(4, 3));
  std::vector<double> b(3, 1.0), x;
  EXPECT_THROW(lu.solve_into(b, x), InvalidArgument);
}

}  // namespace
}  // namespace ota::linalg
