// Small-signal AC analysis.
//
// Linearizes every MOSFET at a DC operating point into {gm, gds, Cgs, Cds}
// (exactly the four device parameters the paper's transformer predicts) and
// solves the complex MNA system (G + jwC) x = b at each requested frequency.
// Voltage and current sources contribute their `ac` values as excitations.
//
// The analysis is split into a one-time structural phase and a cheap
// per-frequency numeric phase.  Construction stamps the conductance pattern G
// (resistors, gm/gds, voltage-source rows), the capacitance pattern C
// (capacitors, Cgs, Cds) and the excitation b once, then reduces the pencil
// (G, C) to Hessenberg-triangular form, Q'GZ = H and Q'CZ = T
// (linalg/hessenberg.hpp).  Each frequency point then solves the Hessenberg
// system (H + jwT) y = Q'b in O(n^2) into per-thread scratch and reads
// x = Z y, one O(n) row per unknown wanted: no netlist walk, no name lookups,
// no per-point allocation, no per-point factorization.  sweep() and
// transfer_sweep() fan frequency points across an ota::par pool with results
// written to caller-indexed slots, so sweep output is bit-identical for any
// thread count (the repository-wide determinism contract).
#pragma once

#include <complex>
#include <functional>
#include <vector>

#include "circuit/netlist.hpp"
#include "device/technology.hpp"
#include "linalg/hessenberg.hpp"
#include "linalg/matrix.hpp"
#include "spice/dc.hpp"

namespace ota::spice {

/// Reusable AC analysis for one netlist + operating point.  Construction
/// extracts the small-signal model and reduces the MNA pencil once; every
/// solve path (single point or batched sweep) runs the same numeric phase.
class AcAnalysis {
 public:
  /// Throws InvalidArgument when the netlist has no MNA unknowns.  Every
  /// solve below throws ConvergenceError when G + jwC is numerically
  /// singular at the requested frequency.
  AcAnalysis(const circuit::Netlist& netlist, const device::Technology& tech,
             const DcSolution& dc);

  /// Complex node voltages at frequency `f_hz`, indexed by NodeId.  A sweep
  /// of one: the batch path's numeric phase, run against per-thread scratch
  /// so repeated single-point calls stay allocation-free too.
  std::vector<std::complex<double>> solve(double f_hz) const;

  /// Transfer value at the named node (the excitation amplitudes are encoded
  /// in the sources' ac values, e.g. a +/-0.5 differential pair of sources).
  std::complex<double> transfer(double f_hz, const std::string& node) const;

  /// Batched sweep: node-voltage vectors (as solve()) for every frequency,
  /// in input order.  `threads` follows the repository convention — an
  /// explicit worker count (a dedicated pool, for determinism sweeps), or 0
  /// for the persistent process-wide pool (par::global_pool()) — but
  /// defaults to 1 because AC sweeps commonly run inside an outer parallel
  /// region (dataset generation, campaign evaluation).  Results are
  /// bit-identical for every thread count.
  std::vector<std::vector<std::complex<double>>> sweep(
      const std::vector<double>& freqs, int threads = 1) const;

  /// Batched transfer(): the named node's value at every frequency.
  std::vector<std::complex<double>> transfer_sweep(
      const std::vector<double>& freqs, const std::string& node,
      int threads = 1) const;

  /// Small-signal device parameters used by this analysis.
  const std::map<std::string, device::SmallSignal>& devices() const {
    return devices_;
  }

  /// Number of MNA unknowns (node voltages + source branch currents).
  int system_size() const { return static_cast<int>(pencil_.size()); }

 private:
  /// Per-worker scratch for the numeric phase; one per sweep chunk.
  using Workspace = linalg::HessenbergTriangular::Workspace;

  /// Numeric phase for one point: solves (H + jwT) y = Q'b into `ws`; the
  /// MNA unknowns are read back through pencil_.solution().
  void solve_point(double f_hz, Workspace& ws) const;

  /// The shared sweep scaffold: solves every frequency across the pool
  /// (per-chunk workspaces, caller-indexed order) and hands each solved
  /// point to `sink(index, ws)` for output extraction.
  void for_each_point(const std::vector<double>& freqs, int threads,
                      const std::function<void(size_t, const Workspace&)>&
                          sink) const;

  /// Repacks an MNA solution into NodeId-indexed node voltages.
  std::vector<std::complex<double>> node_voltages(const Workspace& ws) const;

  const circuit::Netlist& netlist_;
  std::map<std::string, device::SmallSignal> devices_;
  linalg::HessenbergTriangular pencil_;  ///< (G, C) reduced, with Q'b
};

}  // namespace ota::spice
