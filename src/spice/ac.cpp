#include "spice/ac.hpp"

#include <algorithm>
#include <numbers>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "par/thread_pool.hpp"

namespace ota::spice {

using circuit::kGround;
using std::complex;
using Cplx = complex<double>;

namespace {

// Stamps the MNA pencil of the linearized circuit (conductances G,
// capacitances C, excitation b) and reduces it: the only O(n^3) work of an
// analysis, shared by every frequency point.
linalg::HessenbergTriangular reduce_mna(
    const circuit::Netlist& netlist,
    const std::map<std::string, device::SmallSignal>& devices) {
  const int n_nodes = netlist.node_count();
  const int n_vsrc = static_cast<int>(netlist.vsources().size());
  if (n_nodes - 1 + n_vsrc == 0) {
    throw InvalidArgument("AcAnalysis: empty netlist");
  }
  const size_t n = static_cast<size_t>(n_nodes - 1 + n_vsrc);
  linalg::MatrixD g(n, n), c(n, n), rhs(n, 1);

  auto vi = [&](circuit::NodeId id) { return static_cast<size_t>(id - 1); };
  // Admittance between two nodes (either may be ground) into matrix `m`.
  auto stamp_y = [&](linalg::MatrixD& m, circuit::NodeId a, circuit::NodeId b,
                     double y) {
    if (a != kGround) m(vi(a), vi(a)) += y;
    if (b != kGround) m(vi(b), vi(b)) += y;
    if (a != kGround && b != kGround) {
      m(vi(a), vi(b)) -= y;
      m(vi(b), vi(a)) -= y;
    }
  };
  // VCCS: current `gm * v(cp, cn)` flowing from node `out_from` to `out_to`.
  auto stamp_vccs = [&](circuit::NodeId out_from, circuit::NodeId out_to,
                        circuit::NodeId cp, circuit::NodeId cn, double gm) {
    if (out_from != kGround && cp != kGround) g(vi(out_from), vi(cp)) += gm;
    if (out_from != kGround && cn != kGround) g(vi(out_from), vi(cn)) -= gm;
    if (out_to != kGround && cp != kGround) g(vi(out_to), vi(cp)) -= gm;
    if (out_to != kGround && cn != kGround) g(vi(out_to), vi(cn)) += gm;
  };

  for (const auto& r : netlist.resistors()) {
    stamp_y(g, r.a, r.b, 1.0 / r.resistance);
  }
  for (const auto& cap : netlist.capacitors()) {
    stamp_y(c, cap.a, cap.b, cap.capacitance);
  }
  for (const auto& m : netlist.mosfets()) {
    const auto& ss = devices.at(m.name);
    // Uniform small-signal convention (both polarities): the drain-source
    // channel current is gm*v(g,s) + gds*v(d,s), flowing drain -> source.
    stamp_vccs(m.drain, m.source, m.gate, m.source, ss.gm);
    stamp_y(g, m.drain, m.source, ss.gds);
    stamp_y(c, m.gate, m.source, ss.cgs);
    stamp_y(c, m.drain, m.source, ss.cds);
  }
  for (const auto& s : netlist.isources()) {
    // AC current s.ac flows pos -> neg through the source: it leaves `pos`.
    if (s.pos != kGround) rhs(vi(s.pos), 0) -= s.ac;
    if (s.neg != kGround) rhs(vi(s.neg), 0) += s.ac;
  }
  const auto& vsrcs = netlist.vsources();
  for (int k = 0; k < n_vsrc; ++k) {
    const auto& s = vsrcs[static_cast<size_t>(k)];
    const size_t row = static_cast<size_t>(n_nodes - 1 + k);
    if (s.pos != kGround) {
      g(vi(s.pos), row) += 1.0;
      g(row, vi(s.pos)) += 1.0;
    }
    if (s.neg != kGround) {
      g(vi(s.neg), row) -= 1.0;
      g(row, vi(s.neg)) -= 1.0;
    }
    rhs(row, 0) = s.ac;
  }
  return linalg::HessenbergTriangular(std::move(g), std::move(c),
                                      std::move(rhs));
}

}  // namespace

AcAnalysis::AcAnalysis(const circuit::Netlist& netlist,
                       const device::Technology& tech, const DcSolution& dc)
    : netlist_(netlist),
      devices_(small_signal_map(netlist, tech, dc)),
      pencil_(reduce_mna(netlist, devices_)) {}

void AcAnalysis::solve_point(double f_hz, Workspace& ws) const {
  STAT_COUNTER("spice.ac.point");
  // Injectable singularity: a failed point is what dataset generation counts
  // as a failed attempt and Stage IV treats as a hard miss.
  FAULT_SITE_AS("spice.ac.point", ConvergenceError);
  pencil_.solve_shifted(2.0 * std::numbers::pi * f_hz, 0, ws);
}

void AcAnalysis::for_each_point(
    const std::vector<double>& freqs, int threads,
    const std::function<void(size_t, const Workspace&)>& sink) const {
  auto run = [&](par::ThreadPool& pool) {
    pool.parallel_for(freqs.size(), [&](size_t begin, size_t end) {
      Workspace ws;
      for (size_t i = begin; i < end; ++i) {
        solve_point(freqs[i], ws);
        sink(i, ws);
      }
    });
  };
  if (threads <= 0) {
    // Auto: the persistent process-wide pool — sweeps issued back to back
    // (measure_ac's refinements, campaign verification under a server) reuse
    // one set of workers instead of spawning a pool per sweep.  Nested calls
    // from inside that pool degrade to inline runs, same results.
    run(par::global_pool());
    return;
  }
  // Explicit worker count (determinism sweeps in tests/benches): a dedicated
  // pool, never wider than the point count.
  par::ThreadPool pool(std::min<int>(
      threads, static_cast<int>(std::max<size_t>(freqs.size(), 1))));
  run(pool);
}

std::vector<Cplx> AcAnalysis::node_voltages(const Workspace& ws) const {
  const int n_nodes = netlist_.node_count();
  std::vector<Cplx> v(static_cast<size_t>(n_nodes), Cplx{});
  for (int id = 1; id < n_nodes; ++id) {
    v[static_cast<size_t>(id)] =
        pencil_.solution(static_cast<size_t>(id - 1), ws);
  }
  return v;
}

// Single-point calls run the same numeric phase as sweeps, against
// per-thread scratch: bisection refinements in spice::measure hit this path
// dozens of times per measurement, so it must be as allocation-free as a
// sweep chunk.  Different-size systems interleaving on one thread just
// resize the scratch.
std::vector<Cplx> AcAnalysis::solve(double f_hz) const {
  thread_local Workspace ws;
  solve_point(f_hz, ws);
  return node_voltages(ws);
}

Cplx AcAnalysis::transfer(double f_hz, const std::string& node) const {
  const circuit::NodeId id = netlist_.find_node(node);
  if (id == kGround) return Cplx{};  // the reference node is identically zero
  thread_local Workspace ws;
  solve_point(f_hz, ws);
  return pencil_.solution(static_cast<size_t>(id - 1), ws);
}

std::vector<std::vector<Cplx>> AcAnalysis::sweep(
    const std::vector<double>& freqs, int threads) const {
  std::vector<std::vector<Cplx>> out(freqs.size());
  for_each_point(freqs, threads, [&](size_t i, const Workspace& ws) {
    out[i] = node_voltages(ws);
  });
  return out;
}

std::vector<Cplx> AcAnalysis::transfer_sweep(const std::vector<double>& freqs,
                                             const std::string& node,
                                             int threads) const {
  const circuit::NodeId id = netlist_.find_node(node);
  std::vector<Cplx> out(freqs.size());
  if (id == kGround) return out;  // the reference node is identically zero
  for_each_point(freqs, threads, [&](size_t i, const Workspace& ws) {
    out[i] = pencil_.solution(static_cast<size_t>(id - 1), ws);
  });
  return out;
}

}  // namespace ota::spice
