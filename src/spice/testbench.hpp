// OTA testbench: one-call evaluation of a sized topology.
//
// Evaluation runs in two stages — the exact loop the paper's data-generation
// stage (OCEAN scripts) and Stage IV verification run per candidate sizing:
//
//   1. operating_point(): DC solve, per-MOSFET linearisation, and the
//      region/saturation verdict.  No AC matrices are stamped.
//   2. AcAnalysis + measure_ac() over that operating point: gain, BW, UGF.
//
// evaluate()/evaluate_current() are that composition.  The region verdict is
// a pure function of the DC solution, so callers that discard region rejects
// (dataset generation, the ICMR sweep) stop after stage 1 and get exactly the
// verdict the full evaluation would have reported.  The AC measurement is one
// coarse transfer_sweep plus bisection per evaluation (spice/measure.hpp), on
// the calling thread.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/topologies.hpp"
#include "spice/measure.hpp"

namespace ota::spice {

/// The DC half of an evaluation: operating point, small-signal parameters,
/// and the region verdict against the topology's match-group requirements.
struct OperatingPoint {
  std::map<std::string, device::SmallSignal> devices;  ///< per-MOSFET params
  DcSolution dc;
  bool regions_ok = false;  ///< all match-group region requirements satisfied
  bool saturation_ok = false;  ///< all required devices in saturation
};

/// Everything minispice knows about one sized design: the operating point
/// plus the AC metrics measured at it.
struct EvalResult : OperatingPoint {
  AcMetrics metrics;
};

/// Solves the DC operating point of the topology at its current widths,
/// linearises every MOSFET (small_signal_map) and classifies the regions.
/// Throws ConvergenceError when the DC solve fails.
OperatingPoint operating_point(const circuit::Topology& topology,
                               const device::Technology& tech);

/// Evaluates a topology with the given widths (one per match group).
/// Throws ConvergenceError when the DC solve fails.
EvalResult evaluate(circuit::Topology& topology, const device::Technology& tech,
                    const std::vector<double>& widths,
                    const MeasureOptions& opt = {});

/// Evaluates the topology at its current widths: operating_point() followed
/// by the AC measurement.
EvalResult evaluate_current(circuit::Topology& topology,
                            const device::Technology& tech,
                            const MeasureOptions& opt = {});

/// Input common-mode range: sweeps the input common mode from 0 to Vdd in
/// `v_step` increments and returns the [lo, hi] window over which every
/// required device stays in saturation (the paper's ICMR sweep of Section
/// IV-A), or nullopt when empty.  Only the operating point is solved per
/// step.  Throws InvalidArgument unless `v_step` is finite, positive and
/// large enough to advance the sweep at Vdd.  The input sources' DC values
/// are restored on every exit, including a throw.
std::optional<std::pair<double, double>> input_common_mode_range(
    circuit::Topology& topology, const device::Technology& tech,
    double v_step = 0.05);

}  // namespace ota::spice
