// Precomputed per-unit-width device lookup table (paper Fig. 5, §III-D.1).
//
// The LUT is built by a nested DC sweep of (Vgs, Vds) for a reference-width
// transistor and stores the five outputs {Id, gm, gds, Cds, Cgs} *per unit
// width* — valid because all five scale linearly with W (a tested property of
// the device model, as of the paper's 65 nm devices).  Queries between grid
// points are answered with cubic-spline interpolation, allowing the coarse
// 60 mV grid of the paper to stay small without losing accuracy.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "device/mos_model.hpp"
#include "linalg/spline.hpp"

namespace ota::lut {

/// The five LUT outputs at one bias point, per meter of width.
struct LutEntry {
  double id = 0.0;   ///< [A/m]
  double gm = 0.0;   ///< [S/m]
  double gds = 0.0;  ///< [S/m]
  double cds = 0.0;  ///< [F/m]
  double cgs = 0.0;  ///< [F/m]
};

/// Grid and characterization settings; defaults follow the paper
/// (0-1.2 V in 60 mV steps, Wref = 700 nm, L = 180 nm).
struct LutOptions {
  double v_min = 0.0;
  double v_max = 1.2;
  double v_step = 0.06;
  double wref = 700e-9;
  double l = 180e-9;
  /// Points of the width estimators' inner Vds scan, evenly spaced over the
  /// Vds axis (at least 2); the LUT precomputes one spline column per point.
  int vds_scan_points = 121;
};

/// LUT for one device polarity at one channel length.  Bias values are
/// polarity-normalized (positive Vgs/Vds for both NMOS and PMOS).
class DeviceLut {
 public:
  DeviceLut(const device::MosModel& model, const LutOptions& opt = {});

  /// Spline-interpolated per-unit-width outputs at (vgs, vds), clamped to the
  /// characterized window.
  LutEntry lookup(double vgs, double vds) const;

  /// gm/Id inversion at fixed vds: the Vgs at which gm/Id equals `gmid`
  /// [1/V], or nullopt when the target is outside the achievable range.
  /// gm/Id decreases monotonically with Vgs (weak -> strong inversion).
  std::optional<double> find_vgs_for_gmid(double gmid, double vds) const;

  /// Achievable gm/Id range at a given vds: {min, max}.
  std::pair<double, double> gmid_range(double vds) const;

  /// The width scan's Vds grid: options().vds_scan_points evenly spaced
  /// points from the first to the last Vds knot.
  const std::vector<double>& scan_vds() const { return scan_vds_; }

  /// lookup(vgs, scan_vds()[k]), bit for bit, from the spline column
  /// precomputed at construction.  Throws InvalidArgument unless
  /// k < scan_vds().size().
  LutEntry lookup_scan(double vgs, size_t k) const;

  const LutOptions& options() const { return opt_; }
  const std::vector<double>& vgs_axis() const { return vgs_; }
  const std::vector<double>& vds_axis() const { return vds_; }

  /// Raw (uninterpolated) grid entry, for tests and serialization.
  LutEntry grid_entry(size_t i_vgs, size_t i_vds) const;

 private:
  LutEntry lookup(std::span<const double> column, double vgs) const;
  std::pair<double, double> gmid_range(std::span<const double> column) const;

  LutOptions opt_;
  std::vector<double> vgs_;
  std::vector<double> vds_;
  // One five-channel interpolator over the shared axes, channels in
  // LutEntry order {Id, gm, gds, Cds, Cgs}; it also holds the raw samples.
  linalg::BicubicSpline spline_;
  std::vector<double> scan_vds_;
  // The spline column at each scan_vds_ point, back to back.
  std::vector<double> scan_columns_;
};

}  // namespace ota::lut
