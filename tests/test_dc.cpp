// Newton DC solver tests: linear sanity, nonlinear devices, full OTAs, and
// plain Newton against its gmin-ladder fallback.
#include "spice/dc.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "core/dataset.hpp"
#include "spice/testbench.hpp"

namespace ota::spice {
namespace {

using circuit::Netlist;
using device::MosType;

class DcTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_F(DcTest, ResistorDivider) {
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 1.2);
  nl.add_resistor("R1", "in", "mid", 1e3);
  nl.add_resistor("R2", "mid", "0", 1e3);
  const DcSolution sol = solve_dc(nl, tech);
  EXPECT_NEAR(sol.voltage(nl, "mid"), 0.6, 1e-9);
  EXPECT_NEAR(sol.voltage(nl, "in"), 1.2, 1e-12);
  // Branch current through V1: 1.2 V over 2 kOhm leaves the positive node.
  EXPECT_NEAR(sol.vsource_current.at("V1"), -0.6e-3, 1e-9);
}

TEST_F(DcTest, CurrentSourceIntoResistor) {
  Netlist nl;
  nl.add_isource("I1", "0", "n", 1e-3);  // pushes 1 mA into n
  nl.add_resistor("R1", "n", "0", 2e3);
  const DcSolution sol = solve_dc(nl, tech);
  EXPECT_NEAR(sol.voltage(nl, "n"), 2.0, 1e-9);
}

TEST_F(DcTest, CapacitorIsOpenAtDc) {
  Netlist nl;
  nl.add_vsource("V1", "in", "0", 1.0);
  nl.add_resistor("R1", "in", "out", 1e3);
  nl.add_capacitor("C1", "out", "0", 1e-12);
  // With the cap open, no current flows: out follows in.  The solver needs
  // gmin to keep the matrix nonsingular mid-iteration; final answer is exact.
  const DcSolution sol = solve_dc(nl, tech);
  EXPECT_NEAR(sol.voltage(nl, "out"), 1.0, 1e-6);
}

TEST_F(DcTest, DiodeConnectedNmos) {
  // VDD -> R -> diode-connected NMOS: the gate-drain node settles where
  // I_R == I_D; check KCL holds at the solution.
  Netlist nl;
  nl.add_vsource("VDD", "vdd", "0", 1.2);
  nl.add_resistor("R1", "vdd", "d", 10e3);
  nl.add_mosfet("M1", MosType::Nmos, "d", "d", "0", 5e-6, 180e-9);
  const DcSolution sol = solve_dc(nl, tech);
  const double vd = sol.voltage(nl, "d");
  EXPECT_GT(vd, 0.2);
  EXPECT_LT(vd, 0.9);
  const double i_r = (1.2 - vd) / 10e3;
  const device::MosModel m(tech.nmos);
  const double i_d = m.dc(vd, vd, 0.0, 5e-6, 180e-9).id;
  EXPECT_NEAR(i_r, i_d, 1e-9);
}

TEST_F(DcTest, NmosInverterTransfersCorrectly)  {
  // Common-source stage with resistive load; output should sit well below
  // VDD when the input is high, near VDD when low.
  Netlist nl;
  nl.add_vsource("VDD", "vdd", "0", 1.2);
  nl.add_vsource("VIN", "g", "0", 1.0);
  nl.add_resistor("RL", "vdd", "d", 20e3);
  nl.add_mosfet("M1", MosType::Nmos, "d", "g", "0", 2e-6, 180e-9);
  DcSolution sol = solve_dc(nl, tech);
  EXPECT_LT(sol.voltage(nl, "d"), 0.4);

  Netlist nl2;
  nl2.add_vsource("VDD", "vdd", "0", 1.2);
  nl2.add_vsource("VIN", "g", "0", 0.1);
  nl2.add_resistor("RL", "vdd", "d", 20e3);
  nl2.add_mosfet("M1", MosType::Nmos, "d", "g", "0", 2e-6, 180e-9);
  sol = solve_dc(nl2, tech);
  EXPECT_GT(sol.voltage(nl2, "d"), 1.1);
}

TEST_F(DcTest, FiveTransistorOtaBiasesSensibly) {
  auto topo = circuit::make_5t_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  const DcSolution sol = solve_dc(topo.netlist, tech);
  const double vtail = sol.voltage(topo.netlist, "ntail");
  const double vout = sol.voltage(topo.netlist, "vout");
  const double vn1 = sol.voltage(topo.netlist, "n1");
  // Tail node below the input common mode; mirror node one PMOS Vgs below VDD.
  EXPECT_GT(vtail, 0.05);
  EXPECT_LT(vtail, 0.7);
  EXPECT_GT(vn1, 0.5);
  EXPECT_LT(vn1, 1.15);
  // With matched halves the output matches the mirror node voltage closely.
  EXPECT_NEAR(vout, vn1, 0.15);
}

TEST_F(DcTest, CurrentMirrorOtaBiases) {
  auto topo = circuit::make_cm_ota(tech);
  topo.apply_widths({3e-6, 10e-6, 6e-6, 6e-6, 4e-6});
  const DcSolution sol = solve_dc(topo.netlist, tech);
  // Diode nodes sit a PMOS Vgs below VDD; the mirror output node is a diode
  // NMOS Vgs above ground.
  EXPECT_LT(sol.voltage(topo.netlist, "na"), 1.1);
  EXPECT_GT(sol.voltage(topo.netlist, "na"), 0.4);
  EXPECT_GT(sol.voltage(topo.netlist, "nc"), 0.2);
  EXPECT_LT(sol.voltage(topo.netlist, "nc"), 0.9);
}

TEST_F(DcTest, TwoStageOtaBiases) {
  auto topo = circuit::make_2s_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6, 10e-6, 3e-6});
  const DcSolution sol = solve_dc(topo.netlist, tech);
  const double vout = sol.voltage(topo.netlist, "vout");
  EXPECT_GT(vout, 0.05);
  EXPECT_LT(vout, 1.15);
}

TEST_F(DcTest, SmallSignalMapCoversAllDevices) {
  auto topo = circuit::make_5t_ota(tech);
  topo.apply_widths({4e-6, 12e-6, 6e-6});
  const DcSolution sol = solve_dc(topo.netlist, tech);
  const auto ss = small_signal_map(topo.netlist, tech, sol);
  EXPECT_EQ(ss.size(), 5u);
  for (const auto& [name, p] : ss) {
    EXPECT_GT(p.gm, 0.0) << name;
    EXPECT_GT(p.gds, 0.0) << name;
    EXPECT_GT(p.cgs, 0.0) << name;
    EXPECT_GT(p.cds, 0.0) << name;
  }
  // Matched pairs see identical bias -> identical parameters.
  EXPECT_NEAR(ss.at("M3").gm, ss.at("M4").gm, ss.at("M3").gm * 0.05);
}

TEST_F(DcTest, EmptyNetlistThrows) {
  Netlist nl;
  EXPECT_THROW(solve_dc(nl, tech), InvalidArgument);
}

// Plain Newton first, against the gmin ladder it falls back to.  Faulting the
// plain attempt at its one fault-site hit forces that fallback, which restarts
// from the initial guess: it is the always-ladder solve.
class DcOracleTest : public DcTest {
 protected:
  OperatingPoint ladder_only(const circuit::Topology& topo) {
    fault::ScopedFaults faults("spice.dc.newton:once=1");
    return operating_point(topo, tech);
  }
};

TEST_F(DcOracleTest, NewtonFirstMatchesTheLadderOnDatagenCandidates) {
  // Every candidate the dataset sampler draws, region rejects included.
  const double tol = 3.0 * DcOptions{}.v_tol;
  const core::DataGenOptions opt;
  for (const char* name : {"5T-OTA", "CM-OTA", "2S-OTA"}) {
    auto topo = circuit::make_topology(name, tech);
    for (uint64_t i = 0; i < 200; ++i) {
      SCOPED_TRACE(std::string(name) + " candidate " + std::to_string(i));
      core::sample_widths(topo, tech, opt, i);
      bool newton_ok = true, ladder_ok = true;
      OperatingPoint newton, ladder;
      try {
        newton = operating_point(topo, tech);
      } catch (const ConvergenceError&) {
        newton_ok = false;
      }
      try {
        ladder = ladder_only(topo);
      } catch (const ConvergenceError&) {
        ladder_ok = false;
      }
      ASSERT_EQ(newton_ok, ladder_ok);
      if (!newton_ok) continue;
      ASSERT_EQ(newton.dc.v.size(), ladder.dc.v.size());
      for (size_t n = 0; n < newton.dc.v.size(); ++n) {
        EXPECT_NEAR(newton.dc.v[n], ladder.dc.v[n], tol) << "node " << n;
      }
      EXPECT_EQ(newton.regions_ok, ladder.regions_ok);
      EXPECT_EQ(newton.saturation_ok, ladder.saturation_ok);
    }
  }
}

TEST_F(DcOracleTest, FallbackIsTheAlwaysLadderSolveBitForBit) {
  // Node voltages and Newton iterations of the solver that always walked the
  // full gmin ladder, captured as hexfloats for the first two candidates the
  // dataset sampler draws (default options) on each topology.
  struct Pin {
    const char* topology;
    uint64_t index;
    int iterations;
    std::vector<double> v;
  };
  const Pin pins[] = {
      {"5T-OTA", 0, 27,
        {0x0p+0, 0x1.3333333333333p+0, 0x1.8p-1, 0x1.8p-1, 0x1p-1,
         0x1.b58a2df192242p-1, 0x1.b58a2df192242p-1, 0x1.0265daf376fp-2}},
      {"5T-OTA", 1, 26,
        {0x0p+0, 0x1.3333333333333p+0, 0x1.8p-1, 0x1.8p-1, 0x1p-1,
         0x1.647515249b062p-1, 0x1.647515249b062p-1, 0x1.d0d08f8e1e1c1p-2}},
      {"CM-OTA", 0, 27,
        {0x0p+0, 0x1.3333333333333p+0, 0x1.8p-1, 0x1.8p-1, 0x1p-1,
         0x1.b58a2df192242p-1, 0x1.b58a2df192242p-1, 0x1.0265daf376fp-2,
         0x1.aadf5fff79ab9p-2, 0x1.aadf5fff79ab9p-2}},
      {"CM-OTA", 1, 26,
        {0x0p+0, 0x1.3333333333333p+0, 0x1.8p-1, 0x1.8p-1, 0x1p-1,
         0x1.647515249b062p-1, 0x1.647515249b062p-1, 0x1.d0d08f8e1e1c1p-2,
         0x1.33e0ab02b5982p-1, 0x1.33e0ab02b5982p-1}},
      {"2S-OTA", 0, 27,
        {0x0p+0, 0x1.3333333333333p+0, 0x1.8p-1, 0x1.8p-1, 0x1p-1,
         0x1.3333333333333p-1, 0x1.b58a2df192242p-1, 0x1.b58a2df192242p-1,
         0x1.0265daf376fp-2, 0x1.8aa2fc1cf1697p-1}},
      {"2S-OTA", 1, 26,
        {0x0p+0, 0x1.3333333333333p+0, 0x1.8p-1, 0x1.8p-1, 0x1p-1,
         0x1.3333333333333p-1, 0x1.647515249b062p-1, 0x1.647515249b062p-1,
         0x1.d0d08f8e1e1c1p-2, 0x1.df34c2e1f08d1p-2}},
  };
  const core::DataGenOptions opt;
  for (const Pin& p : pins) {
    SCOPED_TRACE(std::string(p.topology) + " candidate " + std::to_string(p.index));
    auto topo = circuit::make_topology(p.topology, tech);
    core::sample_widths(topo, tech, opt, p.index);
    const DcSolution sol = ladder_only(topo).dc;
    EXPECT_EQ(sol.iterations, p.iterations);
    ASSERT_EQ(sol.v.size(), p.v.size());
    EXPECT_EQ(std::memcmp(sol.v.data(), p.v.data(), p.v.size() * sizeof(double)), 0);

    // A plain attempt that fails after moving the iterate (a singular second
    // Jacobian) still hands the ladder the initial guess.
    fault::ScopedFaults faults("linalg.lu.factor:once=2");
    const DcSolution late = solve_dc(topo.netlist, tech);
    EXPECT_EQ(late.iterations, 2 + p.iterations);
    EXPECT_EQ(late.lu_failures, 1);
    ASSERT_EQ(late.v.size(), p.v.size());
    EXPECT_EQ(std::memcmp(late.v.data(), p.v.data(), p.v.size() * sizeof(double)), 0);
  }
}

}  // namespace
}  // namespace ota::spice
