// Width estimation from transformer-predicted device parameters
// (paper Algorithm 1, plus a ratio-scan fallback).
//
// Algorithm 1 converts one device's predicted {gm, gds, Cds, Cgs} and drain
// current into a width by (1) converting to the width-independent gm/Id
// operating point, (2) locating the Vgs that realizes it in the LUT,
// (3) ratioing each predicted parameter against the per-unit-width LUT
// outputs to get candidate widths w1..w5, and (4) iterating Vds until the
// candidates agree.  The scan fallback covers devices whose Id (or gm) is not
// part of the predicted sequence (e.g. a tail device whose gm does not appear
// in the differential DP-SFG).
#pragma once

#include <optional>

#include "lut/device_lut.hpp"

namespace ota::lut {

/// Predicted parameters for one device.  Unset fields are excluded from the
/// candidate-width consensus.
struct PredictedParams {
  std::optional<double> gm;   ///< [S]
  std::optional<double> gds;  ///< [S]
  std::optional<double> cds;  ///< [F]
  std::optional<double> cgs;  ///< [F]
  std::optional<double> id;   ///< [A]
};

struct WidthEstimatorOptions {
  double alpha = 1e-4;       ///< paper's empirically chosen Vds step factor
  double epsilon = 1e-9;     ///< cost-change convergence tolerance
  int max_iterations = 60;   ///< safety bound on the outer loop
  int vds_scan_points = 121; ///< inner cost minimization grid density
};

struct WidthEstimate {
  double width = 0.0;        ///< estimated W [m]
  double vgs = 0.0;          ///< operating Vgs at the solution
  double vds = 0.0;          ///< operating Vds at the solution
  double cost = 0.0;         ///< residual candidate-width disagreement [m]
  int iterations = 0;
};

/// Paper Algorithm 1.  Requires gm and id (for the gm/Id conversion), both
/// positive, and every present parameter finite; throws InvalidArgument
/// otherwise.  Returns nullopt when the requested gm/Id is outside the
/// device's achievable range.
std::optional<WidthEstimate> estimate_width(const DeviceLut& lut,
                                            const PredictedParams& p,
                                            double vdd,
                                            const WidthEstimatorOptions& opt = {});

/// Fallback: joint scan over the (Vgs, Vds) grid minimizing the pairwise
/// disagreement of the candidate widths from whichever parameters are
/// present (needs at least two, all finite; throws InvalidArgument
/// otherwise).  Used when Id or gm is unavailable.
std::optional<WidthEstimate> estimate_width_scan(const DeviceLut& lut,
                                                 const PredictedParams& p,
                                                 const WidthEstimatorOptions& opt = {});

}  // namespace ota::lut
