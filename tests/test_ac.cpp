// AC analysis tests: RC references with closed-form answers, then transistor
// stages checked against hand small-signal analysis.
#include "spice/ac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "circuit/topologies.hpp"
#include "common/error.hpp"
#include "spice/measure.hpp"

namespace ota::spice {
namespace {

using circuit::Netlist;
using device::MosType;

class AcTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(AcTest, RcLowPassMatchesClosedForm) {
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "out", 1e3);
  nl.add_capacitor("C1", "out", "0", 1e-9);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);

  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);  // 159 kHz
  for (double f : {1e3, fc, 1e7}) {
    const auto h = ac.transfer(f, "out");
    const std::complex<double> ref =
        1.0 / std::complex<double>(1.0, f / fc);
    EXPECT_NEAR(std::abs(h - ref), 0.0, 1e-9) << "f=" << f;
  }
}

TEST_F(AcTest, RcHighPass) {
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_capacitor("C1", "in", "out", 1e-9);
  nl.add_resistor("R1", "out", "0", 1e3);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);
  EXPECT_NEAR(std::abs(ac.transfer(fc, "out")), 1.0 / std::numbers::sqrt2, 1e-6);
  EXPECT_LT(std::abs(ac.transfer(fc / 100.0, "out")), 0.02);
  EXPECT_GT(std::abs(ac.transfer(fc * 100.0, "out")), 0.999);
}

TEST_F(AcTest, CurrentSourceExcitationTransimpedance) {
  // 1 A AC into a 1 kOhm resistor reads 1 kV of transimpedance.
  Netlist nl;
  nl.add_isource("I1", "0", "n", 0.0, 1.0);
  nl.add_resistor("R1", "n", "0", 1e3);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  EXPECT_NEAR(std::abs(ac.transfer(1.0, "n")), 1e3, 1e-6);
}

TEST_F(AcTest, CommonSourceGainMatchesGmOverGds) {
  // CS stage with ideal current-source load (large R): |H(DC)| ~ gm * Rout
  // where Rout = R || (1/gds).
  Netlist nl;
  nl.add_vsource("VDD", "vdd", "0", 1.2);
  nl.add_vsource("VIN", "g", "0", 0.55, 1.0);
  nl.add_resistor("RL", "vdd", "d", 50e3);
  nl.add_mosfet("M1", MosType::Nmos, "d", "g", "0", 3e-6, 180e-9);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  const auto& ss = ac.devices().at("M1");
  const double rout = 1.0 / (ss.gds + 1.0 / 50e3);
  const double expected = ss.gm * rout;
  EXPECT_NEAR(std::abs(ac.transfer(1.0, "d")), expected, expected * 1e-6);
  // And the stage inverts: phase ~ 180 deg at low frequency.
  EXPECT_LT(ac.transfer(1.0, "d").real(), 0.0);
}

TEST_F(AcTest, SourceFollowerGainJustBelowUnity) {
  Netlist nl;
  nl.add_vsource("VDD", "vdd", "0", 1.2);
  nl.add_vsource("VIN", "g", "0", 0.9, 1.0);
  nl.add_mosfet("M1", MosType::Nmos, "vdd", "g", "s", 5e-6, 180e-9);
  nl.add_resistor("RS", "s", "0", 20e3);
  const DcSolution dc = solve_dc(nl, tech);
  const AcAnalysis ac(nl, tech, dc);
  const double h = std::abs(ac.transfer(1.0, "s"));
  EXPECT_GT(h, 0.7);
  EXPECT_LT(h, 1.0);
}

TEST_F(AcTest, FiveTransistorOtaHasDifferentialGain) {
  auto topo = circuit::make_5t_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  const DcSolution dc = solve_dc(topo.netlist, tech);
  const AcAnalysis ac(topo.netlist, tech, dc);
  const double h0 = std::abs(ac.transfer(1.0, "vout"));
  // Table I range for the 5T-OTA: 18-23 dB, i.e. 8-14x; allow slack since
  // this sizing is arbitrary.
  EXPECT_GT(h0, 3.0);
  EXPECT_LT(h0, 40.0);
  // Gain must roll off at high frequency (500 fF load).
  EXPECT_LT(std::abs(ac.transfer(10e9, "vout")), h0 * 0.2);
}

TEST_F(AcTest, HandAnalysisFiveTransistorGain) {
  // |H(DC)| for the 5T-OTA is gm_dp / (gds2 + gds4) with matched halves.
  auto topo = circuit::make_5t_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  const DcSolution dc = solve_dc(topo.netlist, tech);
  const AcAnalysis ac(topo.netlist, tech, dc);
  const auto& m4 = ac.devices().at("M4");
  const auto& m2 = ac.devices().at("M2");
  const double expected = m4.gm / (m2.gds + m4.gds);
  const double measured = std::abs(ac.transfer(1.0, "vout"));
  EXPECT_NEAR(measured, expected, expected * 0.10);
}

TEST_F(AcTest, SingularSystemThrowsConvergenceError) {
  // Node "x" is fed only by a current source: nothing ties its voltage to the
  // rest of the circuit, so G + jwC is singular at every frequency.  Every
  // entry point must throw the typed error, never hand back NaN.
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 0.0, 1.0);
  nl.add_resistor("R1", "in", "0", 1e3);
  nl.add_isource("I1", "0", "x", 0.0, 1e-3);
  // The DC system is singular too; with no MOSFET to linearise, an all-zero
  // operating point stands in for it.
  DcSolution dc;
  dc.v.assign(static_cast<size_t>(nl.node_count()), 0.0);
  const AcAnalysis ac(nl, tech, dc);
  EXPECT_THROW(ac.solve(1e3), ConvergenceError);
  EXPECT_THROW(ac.transfer(1e3, "x"), ConvergenceError);
  EXPECT_THROW(ac.transfer(1e3, "in"), ConvergenceError);
  EXPECT_THROW(ac.transfer_sweep({1.0, 1e6, 1e12}, "x"), ConvergenceError);
  EXPECT_THROW(ac.transfer_sweep({1.0, 1e6, 1e12}, "x", 3), ConvergenceError);
  EXPECT_THROW(measure_ac(ac, "x"), ConvergenceError);
}

}  // namespace
}  // namespace ota::spice
