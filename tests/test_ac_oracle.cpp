// AC oracle tests: the Hessenberg-triangular AC engine against a dense
// complex LU of the freshly stamped MNA matrix, on sampled OTA designs that
// pass the region and saturation filters (the designs dataset generation
// measures).
//
// For each topology, every sampled design is held to:
//  * every coarse grid point of measure_ac's default scan:
//    |H_ht - H_lu| <= 1e-12 |H_lu(f_low)|;
//  * measure_ac against the same measurement run on the oracle: gain within
//    1e-12 relative, BW and UGF within rel_tol, PM within 1e-6 degrees.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <map>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/error.hpp"
#include "core/dataset.hpp"
#include "linalg/lu.hpp"
#include "spice/measure.hpp"
#include "spice/testbench.hpp"

namespace ota::spice {
namespace {

using circuit::kGround;
using Cplx = std::complex<double>;

// The oracle: stamps G, C and the excitation from the netlist and the
// analysis's own small-signal parameters, then factors G + jwC densely at
// every frequency.
class LuOracle {
 public:
  LuOracle(const circuit::Netlist& nl,
           const std::map<std::string, device::SmallSignal>& devices)
      : nl_(nl) {
    const int n_nodes = nl.node_count();
    const int n_vsrc = static_cast<int>(nl.vsources().size());
    const size_t n = static_cast<size_t>(n_nodes - 1 + n_vsrc);
    g_.reset(n, n);
    c_.reset(n, n);
    rhs_.assign(n, Cplx{});
    auto vi = [](circuit::NodeId id) { return static_cast<size_t>(id - 1); };
    auto stamp_y = [&](linalg::MatrixD& m, circuit::NodeId a,
                       circuit::NodeId b, double y) {
      if (a != kGround) m(vi(a), vi(a)) += y;
      if (b != kGround) m(vi(b), vi(b)) += y;
      if (a != kGround && b != kGround) {
        m(vi(a), vi(b)) -= y;
        m(vi(b), vi(a)) -= y;
      }
    };
    for (const auto& r : nl.resistors()) {
      stamp_y(g_, r.a, r.b, 1.0 / r.resistance);
    }
    for (const auto& cap : nl.capacitors()) {
      stamp_y(c_, cap.a, cap.b, cap.capacitance);
    }
    // VCCS: current `gm * v(cp, cn)` flowing from node `out_from` to `out_to`.
    auto stamp_vccs = [&](circuit::NodeId out_from, circuit::NodeId out_to,
                          circuit::NodeId cp, circuit::NodeId cn, double gm) {
      if (out_from != kGround && cp != kGround) g_(vi(out_from), vi(cp)) += gm;
      if (out_from != kGround && cn != kGround) g_(vi(out_from), vi(cn)) -= gm;
      if (out_to != kGround && cp != kGround) g_(vi(out_to), vi(cp)) -= gm;
      if (out_to != kGround && cn != kGround) g_(vi(out_to), vi(cn)) += gm;
    };
    for (const auto& m : nl.mosfets()) {
      const auto& ss = devices.at(m.name);
      stamp_vccs(m.drain, m.source, m.gate, m.source, ss.gm);
      stamp_y(g_, m.drain, m.source, ss.gds);
      stamp_y(c_, m.gate, m.source, ss.cgs);
      stamp_y(c_, m.drain, m.source, ss.cds);
    }
    for (const auto& s : nl.isources()) {
      if (s.pos != kGround) rhs_[vi(s.pos)] -= s.ac;
      if (s.neg != kGround) rhs_[vi(s.neg)] += s.ac;
    }
    const auto& vsrcs = nl.vsources();
    for (int k = 0; k < n_vsrc; ++k) {
      const auto& s = vsrcs[static_cast<size_t>(k)];
      const size_t row = static_cast<size_t>(n_nodes - 1 + k);
      if (s.pos != kGround) {
        g_(vi(s.pos), row) += 1.0;
        g_(row, vi(s.pos)) += 1.0;
      }
      if (s.neg != kGround) {
        g_(vi(s.neg), row) -= 1.0;
        g_(row, vi(s.neg)) -= 1.0;
      }
      rhs_[row] = s.ac;
    }
  }

  Cplx transfer(double f_hz, const std::string& node) const {
    const double omega = 2.0 * std::numbers::pi * f_hz;
    linalg::MatrixC y(g_.rows(), g_.cols());
    for (size_t i = 0; i < y.data().size(); ++i) {
      y.data()[i] = Cplx{g_.data()[i], omega * c_.data()[i]};
    }
    const std::vector<Cplx> x = linalg::solve(std::move(y), rhs_);
    return x[static_cast<size_t>(nl_.find_node(node) - 1)];
  }

 private:
  const circuit::Netlist& nl_;
  linalg::MatrixD g_, c_;
  std::vector<Cplx> rhs_;
};

// measure_ac's coarse grid: f_low times successive powers of the step.
std::vector<double> scan_grid(const MeasureOptions& opt) {
  const double step = std::pow(10.0, 1.0 / opt.points_per_decade);
  std::vector<double> grid;
  for (double f = opt.f_low;; f *= step) {
    grid.push_back(f);
    if (!(f * step <= opt.f_high * (1.0 + 1e-12))) break;
  }
  return grid;
}

// measure_ac's algorithm over any transfer function h(f): the first falling
// crossing on the coarse grid, refined by log-bisection.
template <typename Transfer>
AcMetrics measure_with(const Transfer& h, const MeasureOptions& opt) {
  const std::vector<double> grid = scan_grid(opt);
  std::vector<double> mags;
  for (double f : grid) mags.push_back(std::abs(h(f)));
  auto crossing = [&](double target) -> std::optional<double> {
    if (mags.front() <= target) return std::nullopt;
    for (size_t i = 1; i < grid.size(); ++i) {
      if (mags[i] > target) continue;
      double lo = grid[i - 1], hi = grid[i];
      while (hi / lo - 1.0 > opt.rel_tol) {
        const double mid = std::sqrt(lo * hi);
        if (std::abs(h(mid)) > target) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      return std::sqrt(lo * hi);
    }
    return std::nullopt;
  };
  AcMetrics m;
  const Cplx h0 = h(grid.front());
  m.gain_linear = mags.front();
  m.gain_db = 20.0 * std::log10(std::max(m.gain_linear, 1e-30));
  if (auto bw = crossing(m.gain_linear / std::numbers::sqrt2)) {
    m.bw_3db_hz = *bw;
  }
  if (m.gain_linear > 1.0) {
    if (auto ugf = crossing(1.0)) {
      m.ugf_hz = *ugf;
      m.phase_margin_deg =
          180.0 + std::arg(h(*ugf) / h0) * 180.0 / std::numbers::pi;
    }
  }
  return m;
}

class AcOracleTest : public ::testing::TestWithParam<const char*> {
 protected:
  device::Technology tech = device::Technology::default65nm();
};

TEST_P(AcOracleTest, HessenbergMatchesDenseLuOnSampledDesigns) {
  constexpr int kDesigns = 50;
  const std::string name = GetParam();
  auto topo = circuit::make_topology(name, tech);
  core::DataGenOptions gen;
  gen.seed = 31;
  const MeasureOptions opt;
  const std::vector<double> grid = scan_grid(opt);

  int checked = 0;
  for (uint64_t index = 0; checked < kDesigns; ++index) {
    ASSERT_LT(index, 20000u) << "too few region-passing samples";
    core::sample_widths(topo, tech, gen, index);
    OperatingPoint op;
    try {
      op = operating_point(topo, tech);
    } catch (const ConvergenceError&) {
      continue;
    }
    if (!op.regions_ok || !op.saturation_ok) continue;
    ++checked;
    SCOPED_TRACE(name + " sample " + std::to_string(index));

    const AcAnalysis ac(topo.netlist, tech, op.dc);
    const LuOracle oracle(topo.netlist, ac.devices());
    const std::string& out = topo.output_node;

    const std::vector<Cplx> h = ac.transfer_sweep(grid, out);
    const double scale = std::abs(oracle.transfer(grid.front(), out));
    for (size_t i = 0; i < grid.size(); ++i) {
      const double err = std::abs(h[i] - oracle.transfer(grid[i], out));
      ASSERT_LE(err, 1e-12 * scale) << "f=" << grid[i];
    }

    const AcMetrics m = measure_ac(ac, out, opt);
    // The replica above is measure_ac's own algorithm: on the engine's
    // transfer it reproduces measure_ac bit for bit, so what follows
    // compares the linear solvers and nothing else.
    const AcMetrics replica = measure_with(
        [&](double f) { return ac.transfer(f, out); }, opt);
    EXPECT_EQ(m.gain_linear, replica.gain_linear);
    EXPECT_EQ(m.bw_3db_hz, replica.bw_3db_hz);
    EXPECT_EQ(m.ugf_hz, replica.ugf_hz);
    EXPECT_EQ(m.phase_margin_deg, replica.phase_margin_deg);

    const AcMetrics ref = measure_with(
        [&](double f) { return oracle.transfer(f, out); }, opt);
    EXPECT_NEAR(m.gain_linear, ref.gain_linear, 1e-12 * ref.gain_linear);
    EXPECT_NEAR(m.bw_3db_hz, ref.bw_3db_hz, opt.rel_tol * ref.bw_3db_hz);
    EXPECT_NEAR(m.ugf_hz, ref.ugf_hz, opt.rel_tol * ref.ugf_hz);
    EXPECT_NEAR(m.phase_margin_deg, ref.phase_margin_deg, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, AcOracleTest,
                         ::testing::Values("5T-OTA", "CM-OTA", "2S-OTA"),
                         [](const auto& info) {
                           std::string s = info.param;
                           std::erase(s, '-');
                           return s;
                         });

}  // namespace
}  // namespace ota::spice
