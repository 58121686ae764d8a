#include "lut/device_lut.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ota::lut {

DeviceLut::DeviceLut(const device::MosModel& model, const LutOptions& opt)
    : opt_(opt) {
  if (opt.v_step <= 0 || opt.v_max <= opt.v_min) {
    throw InvalidArgument("DeviceLut: bad grid options");
  }
  if (opt.vds_scan_points < 2) {
    throw InvalidArgument("DeviceLut: vds_scan_points must be at least 2");
  }
  // Index-based generation avoids floating-point accumulation drifting the
  // last knot past v_max.
  const int count = static_cast<int>(std::round((opt.v_max - opt.v_min) / opt.v_step)) + 1;
  for (int i = 0; i < count; ++i) {
    vgs_.push_back(std::min(opt.v_min + i * opt.v_step, opt.v_max));
  }
  vds_ = vgs_;

  const size_t n = vgs_.size(), m = vds_.size();
  std::vector<linalg::MatrixD> grids(5, linalg::MatrixD(n, m));

  // Nested DC sweep at the reference width; store per-unit-width values.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const device::SmallSignal ss =
          model.evaluate(vgs_[i], vds_[j], opt.wref, opt.l);
      grids[0](i, j) = ss.id / opt.wref;
      grids[1](i, j) = ss.gm / opt.wref;
      grids[2](i, j) = ss.gds / opt.wref;
      grids[3](i, j) = ss.cds / opt.wref;
      grids[4](i, j) = ss.cgs / opt.wref;
    }
  }
  spline_ = linalg::BicubicSpline(vgs_, vds_, grids);

  // Every width scan visits the same Vds points, so their columns are built
  // once here rather than once per lookup.
  const int points = opt.vds_scan_points;
  const double lo = vds_.front(), hi = vds_.back();
  scan_columns_.reserve(static_cast<size_t>(points) * spline_.column_size());
  for (int i = 0; i < points; ++i) {
    scan_vds_.push_back(lo + (hi - lo) * i / (points - 1));
    const auto column = spline_.column(scan_vds_.back());
    scan_columns_.insert(scan_columns_.end(), column.begin(), column.end());
  }
}

LutEntry DeviceLut::lookup(double vgs, double vds) const {
  double v[5];
  spline_.evaluate(vgs, vds, v);
  return LutEntry{v[0], v[1], v[2], v[3], v[4]};
}

LutEntry DeviceLut::lookup(std::span<const double> column, double vgs) const {
  double v[5];
  spline_.evaluate_column(column, vgs, v);
  return LutEntry{v[0], v[1], v[2], v[3], v[4]};
}

LutEntry DeviceLut::lookup_scan(double vgs, size_t k) const {
  if (k >= scan_vds_.size()) {
    throw InvalidArgument("DeviceLut::lookup_scan: scan point out of range");
  }
  const size_t n = spline_.column_size();
  return lookup(std::span<const double>(scan_columns_).subspan(k * n, n), vgs);
}

LutEntry DeviceLut::grid_entry(size_t i_vgs, size_t i_vds) const {
  return LutEntry{spline_.sample(i_vgs, i_vds, 0), spline_.sample(i_vgs, i_vds, 1),
                  spline_.sample(i_vgs, i_vds, 2), spline_.sample(i_vgs, i_vds, 3),
                  spline_.sample(i_vgs, i_vds, 4)};
}

std::pair<double, double> DeviceLut::gmid_range(double vds) const {
  return gmid_range(spline_.column(vds));
}

std::pair<double, double> DeviceLut::gmid_range(std::span<const double> column) const {
  // gm/Id decreases with Vgs, so the extremes sit at the grid ends.  Guard
  // against the near-zero current at the lowest Vgs with a floor.
  const LutEntry lo = lookup(column, vgs_.front());
  const LutEntry hi = lookup(column, vgs_.back());
  const double max_gmid = lo.id > 0 ? lo.gm / lo.id : 0.0;
  const double min_gmid = hi.id > 0 ? hi.gm / hi.id : 0.0;
  return {min_gmid, max_gmid};
}

std::optional<double> DeviceLut::find_vgs_for_gmid(double gmid, double vds) const {
  if (gmid <= 0) return std::nullopt;
  // Every lookup below sits at this vds: one column serves them all.
  const auto column = spline_.column(vds);
  const auto [lo_gmid, hi_gmid] = gmid_range(column);
  if (gmid < lo_gmid * (1 - 1e-9) || gmid > hi_gmid * (1 + 1e-9)) {
    return std::nullopt;
  }
  // Bisection on the monotone map Vgs -> gm/Id.
  double lo = vgs_.front(), hi = vgs_.back();
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo + hi);
    const LutEntry e = lookup(column, mid);
    const double g = e.id > 0 ? e.gm / e.id : 1e30;
    if (g > gmid) {
      lo = mid;  // too weak: move toward stronger inversion
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-9) break;
  }
  return 0.5 * (lo + hi);
}

}  // namespace ota::lut
