#include "lut/width_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace ota::lut {

namespace {

// Up to one candidate width per predicted parameter, without a heap
// allocation: the scans below build one per LUT lookup.
struct Candidates {
  std::array<double, 5> w{};
  size_t n = 0;

  void push_back(double v) { w[n++] = v; }
  size_t size() const { return n; }
  bool empty() const { return n == 0; }
  double front() const { return w[0]; }
  double operator[](size_t i) const { return w[i]; }
};

// Candidate widths from ratioing predicted absolute parameters against the
// per-unit-width LUT outputs (Algorithm 1 lines 9-10).
Candidates candidate_widths(const PredictedParams& p, const LutEntry& e) {
  Candidates ws;
  auto push = [&ws](const std::optional<double>& num, double den) {
    if (num && den > 0.0) ws.push_back(*num / den);
  };
  push(p.gm, e.gm);
  push(p.gds, e.gds);
  push(p.cds, e.cds);
  push(p.cgs, e.cgs);
  push(p.id, e.id);
  return ws;
}

// cost(Vds) = sum over pairs |w_n - w_m| (Algorithm 1 line 11).
double pairwise_cost(const Candidates& ws) {
  double c = 0.0;
  for (size_t n = 0; n < ws.size(); ++n) {
    for (size_t m = n + 1; m < ws.size(); ++m) {
      c += std::fabs(ws[n] - ws[m]);
    }
  }
  return c;
}

struct VdsScanResult {
  double vds = 0.0;
  double cost = 0.0;
  double width = 0.0;
};

// Inner minimization over Vds at a fixed Vgs (Algorithm 1 line 12), on the
// LUT's precomputed scan grid.
VdsScanResult scan_vds(const DeviceLut& lut, const PredictedParams& p, double vgs) {
  const auto& grid = lut.scan_vds();
  VdsScanResult best{lut.vds_axis().front(), 1e300, 0.0};
  for (size_t i = 0; i < grid.size(); ++i) {
    const LutEntry e = lut.lookup_scan(vgs, i);
    const auto ws = candidate_widths(p, e);
    if (ws.size() < 2) continue;
    const double c = pairwise_cost(ws);
    if (c < best.cost) {
      best = VdsScanResult{grid[i], c, ws.front()};
    }
  }
  return best;
}

// Throws when a present parameter is NaN or infinite: the gm/Id bisection
// and the candidate ratios would otherwise turn it into a bogus estimate.
void require_finite(const PredictedParams& p, const char* what) {
  for (const auto& q : {p.gm, p.gds, p.cds, p.cgs, p.id}) {
    if (q && !std::isfinite(*q)) {
      throw InvalidArgument(std::string(what) + ": parameters must be finite");
    }
  }
}

}  // namespace

std::optional<WidthEstimate> estimate_width(const DeviceLut& lut,
                                            const PredictedParams& p,
                                            double vdd,
                                            const WidthEstimatorOptions& opt) {
  if (!p.gm || !p.id) {
    throw InvalidArgument("estimate_width: gm and id are required for gm/Id");
  }
  require_finite(p, "estimate_width");
  if (*p.id <= 0.0 || *p.gm <= 0.0) {
    throw InvalidArgument("estimate_width: gm and id must be positive");
  }
  const double gmid = *p.gm / *p.id;  // line 4

  double vds_curr = vdd / 2.0;  // line 3
  double mincost_prev = 1e300;
  WidthEstimate result;

  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    const double vds_prev = vds_curr;

    // Line 7: Vgs realizing the gm/Id point at the current Vds guess.
    const auto vgs = lut.find_vgs_for_gmid(gmid, vds_curr);
    if (!vgs) return std::nullopt;

    // Lines 8-12: candidate widths as functions of Vds; take the minimum of
    // the pairwise disagreement over the Vds axis.
    const VdsScanResult scan = scan_vds(lut, p, *vgs);

    result.vgs = *vgs;
    result.vds = scan.vds;
    result.cost = scan.cost;
    // Line 16: W = w1(Vds) — the gm-derived candidate at the best Vds.
    const LutEntry e = lut.lookup(*vgs, scan.vds);
    result.width = e.gm > 0 ? *p.gm / e.gm : scan.width;

    const double delta = mincost_prev - scan.cost;  // line 13
    if (std::fabs(delta) < opt.epsilon) break;      // line 5 guard
    mincost_prev = scan.cost;

    // Line 14: nudge the Vds guess along the improving direction.
    vds_curr = vds_curr + (delta > 0 ? 1.0 : -1.0) * opt.alpha * vds_prev;
    vds_curr = std::clamp(vds_curr, lut.vds_axis().front(), lut.vds_axis().back());
  }
  return result;
}

std::optional<WidthEstimate> estimate_width_scan(const DeviceLut& lut,
                                                 const PredictedParams& p) {
  int available = 0;
  for (const auto& q : {p.gm, p.gds, p.cds, p.cgs, p.id}) {
    if (q) ++available;
  }
  if (available < 2) {
    throw InvalidArgument("estimate_width_scan: need at least two parameters");
  }
  require_finite(p, "estimate_width_scan");

  WidthEstimate best;
  best.cost = 1e300;
  bool found = false;
  const auto& vgs_axis = lut.vgs_axis();
  // Grid over Vgs (axis resolution) with the same inner Vds scan as above;
  // then one refinement pass around the winner at 4x density.
  for (double vgs : vgs_axis) {
    const VdsScanResult scan = scan_vds(lut, p, vgs);
    if (scan.cost < best.cost) {
      const LutEntry e = lut.lookup(vgs, scan.vds);
      const auto ws = candidate_widths(p, e);
      if (ws.empty()) continue;
      best.vgs = vgs;
      best.vds = scan.vds;
      best.cost = scan.cost;
      best.width = ws.front();
      found = true;
    }
  }
  if (!found) return std::nullopt;

  const double step = (vgs_axis.back() - vgs_axis.front()) /
                      static_cast<double>(vgs_axis.size() - 1);
  for (double vgs = std::max(vgs_axis.front(), best.vgs - step);
       vgs <= std::min(vgs_axis.back(), best.vgs + step); vgs += step / 8.0) {
    const VdsScanResult scan = scan_vds(lut, p, vgs);
    if (scan.cost < best.cost) {
      const LutEntry e = lut.lookup(vgs, scan.vds);
      const auto ws = candidate_widths(p, e);
      if (ws.empty()) continue;
      best.vgs = vgs;
      best.vds = scan.vds;
      best.cost = scan.cost;
      best.width = ws.front();
    }
  }
  best.iterations = 1;
  return best;
}

}  // namespace ota::lut
