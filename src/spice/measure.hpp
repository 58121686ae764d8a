// Frequency-response measurements: the three performance metrics of the paper
// (DC gain, 3 dB bandwidth, unity-gain frequency) plus phase margin.
//
// A measurement is one coarse log-spaced transfer_sweep() over
// [f_low, f_high], shared by the gain readout and both crossing searches, then
// log-bisection of each crossing down to `rel_tol`, one transfer() per step.
// With the default options that is 97 coarse points and about 39 refinement
// points, each an O(n^2) Hessenberg solve against the pencil AcAnalysis
// reduced once.  The sweep runs on the calling thread: measurements run inside
// an outer parallel region (dataset generation, campaign evaluation) that
// already fills the pool.
#pragma once

#include <string>

#include "spice/ac.hpp"

namespace ota::spice {

/// The specification triple of the paper (Section IV-A): gain, 3 dB
/// bandwidth, and unity-gain frequency.
struct AcMetrics {
  double gain_db = 0.0;        ///< low-frequency gain [dB]
  double gain_linear = 0.0;    ///< low-frequency gain magnitude [V/V]
  double bw_3db_hz = 0.0;      ///< -3 dB bandwidth [Hz]
  double ugf_hz = 0.0;         ///< unity-gain frequency [Hz]; 0 if gain < 1
  double phase_margin_deg = 0.0;  ///< 180 + phase at the UGF [deg]; 0 if no UGF
};

struct MeasureOptions {
  double f_low = 1.0;       ///< frequency standing in for DC [Hz]
  double f_high = 1e12;     ///< upper limit of crossover searches [Hz]
  int points_per_decade = 8;  ///< coarse-scan density before bisection
  double rel_tol = 1e-6;    ///< bisection relative frequency tolerance
};

/// Measures gain / BW / UGF / PM at the named output node over one coarse
/// sweep call plus bisection refinements.  BW (UGF) is the first falling
/// crossing of gain/sqrt(2) (of 1) in [f_low, f_high], 0 when there is none.
/// Throws InvalidArgument on a degenerate scan configuration, and
/// ConvergenceError when the AC system is singular at a scanned point.
AcMetrics measure_ac(const AcAnalysis& ac, const std::string& output_node,
                     const MeasureOptions& opt = {});

}  // namespace ota::spice
