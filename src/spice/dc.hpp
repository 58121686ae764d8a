// Newton-Raphson DC operating-point solver over modified nodal analysis.
//
// This is the core of `minispice`, the in-repo stand-in for the paper's
// Spectre simulations (see DESIGN.md).  The circuits are small (tens of
// unknowns) so a dense Jacobian with LU solves is the right tool.  As in
// SPICE, each solve first runs plain damped Newton; only when that fails
// (singular Jacobian, injected fault, or an exhausted iteration budget) does
// it restart from the initial guess on a gmin-stepping ladder.  Damping plus
// that fallback is sufficient for the stacked-transistor OTA topologies in
// this repository.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "device/mos_model.hpp"
#include "device/technology.hpp"

namespace ota::spice {

struct DcOptions {
  int max_iterations = 200;
  double v_tol = 1e-9;         ///< max node-voltage update for convergence [V]
  double residual_tol = 1e-9;  ///< max KCL residual for convergence [A]
  double damping = 0.3;        ///< max node-voltage step per iteration [V]
  double v_init = 0.6;         ///< initial guess for floating node voltages [V]
  /// gmin homotopy schedule of the fallback ladder, walked only when plain
  /// Newton fails; each entry adds a conductance from every node to ground,
  /// warm-starting the next (smaller) step.  Last entry should be 0.
  std::vector<double> gmin_steps{1e-3, 1e-5, 1e-7, 1e-9, 1e-12, 0.0};
};

/// Converged DC solution.
struct DcSolution {
  std::vector<double> v;  ///< node voltages indexed by NodeId (v[0] == 0)
  std::map<std::string, double> vsource_current;  ///< branch current per V source
  /// Total Newton iterations: the plain attempt's, plus every ladder rung's
  /// when the solve fell back.
  int iterations = 0;
  /// Ladder rungs that failed (singular Jacobian, injected fault, or an
  /// exhausted iteration budget at a nonzero gmin) and were retried at the
  /// next rung.  A failed plain attempt is not a rung: it is counted by the
  /// `spice.dc.ladder_fallbacks` stats counter.  0 in a healthy solve;
  /// nonzero flags a marginal bias point.
  int gmin_retries = 0;
  /// Singular-Jacobian LU factorizations absorbed by the solve, in the plain
  /// attempt or on the ladder (kept separate from gmin_retries for
  /// diagnosis).
  int lu_failures = 0;

  double voltage(const circuit::Netlist& nl, const std::string& node) const {
    return v[static_cast<size_t>(nl.find_node(node))];
  }
};

/// Solves the DC operating point; throws ConvergenceError on failure.
DcSolution solve_dc(const circuit::Netlist& netlist,
                    const device::Technology& tech, const DcOptions& opt = {});

/// Small-signal parameters of every MOSFET at a DC solution, keyed by device
/// name.  This is what the data-generation stage records per design.
std::map<std::string, device::SmallSignal> small_signal_map(
    const circuit::Netlist& netlist, const device::Technology& tech,
    const DcSolution& dc);

}  // namespace ota::spice
