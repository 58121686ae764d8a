#include "spice/testbench.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ota::spice {

namespace {

// Region and saturation checks against the topology's match-group
// requirements.  The tail devices have no region requirement but must still
// be saturated to act as current sources.
void check_regions(const circuit::Topology& topo, OperatingPoint& op) {
  op.regions_ok = true;
  op.saturation_ok = true;
  for (const auto& group : topo.match_groups) {
    for (const auto& dev : group.devices) {
      const auto& ss = op.devices.at(dev);
      if (ss.conduction != device::Conduction::Saturation) {
        op.saturation_ok = false;
      }
      if (ss.ic < group.min_ic || ss.ic > group.max_ic) {
        op.regions_ok = false;
      }
    }
  }
}

// Restores the input sources' DC values when the ICMR sweep leaves scope,
// whether it returns or throws.
class InputSourceRestore {
 public:
  explicit InputSourceRestore(circuit::Topology& topo) : topo_(topo) {
    for (const auto& src : topo_.input_sources) {
      saved_.push_back(topo_.netlist.vsource(src).dc);
    }
  }
  ~InputSourceRestore() {
    for (size_t i = 0; i < saved_.size(); ++i) {
      topo_.netlist.vsource(topo_.input_sources[i]).dc = saved_[i];
    }
  }
  InputSourceRestore(const InputSourceRestore&) = delete;
  InputSourceRestore& operator=(const InputSourceRestore&) = delete;

 private:
  circuit::Topology& topo_;
  std::vector<double> saved_;
};

}  // namespace

OperatingPoint operating_point(const circuit::Topology& topo,
                               const device::Technology& tech) {
  OperatingPoint op;
  op.dc = solve_dc(topo.netlist, tech);
  op.devices = small_signal_map(topo.netlist, tech, op.dc);
  check_regions(topo, op);
  return op;
}

EvalResult evaluate(circuit::Topology& topo, const device::Technology& tech,
                    const std::vector<double>& widths,
                    const MeasureOptions& opt) {
  topo.apply_widths(widths);
  return evaluate_current(topo, tech, opt);
}

EvalResult evaluate_current(circuit::Topology& topo,
                            const device::Technology& tech,
                            const MeasureOptions& opt) {
  EvalResult r{operating_point(topo, tech), {}};
  const AcAnalysis ac(topo.netlist, tech, r.dc);
  r.metrics = measure_ac(ac, topo.output_node, opt);
  return r;
}

std::optional<std::pair<double, double>> input_common_mode_range(
    circuit::Topology& topo, const device::Technology& tech, double v_step) {
  // A step that cannot advance vcm up to Vdd would never end the sweep.
  if (!(v_step > 0.0) || !std::isfinite(v_step) ||
      tech.vdd + v_step == tech.vdd) {
    throw InvalidArgument(
        "input_common_mode_range: v_step must be finite, > 0 and large "
        "enough to advance the sweep at Vdd");
  }
  const InputSourceRestore restore(topo);

  double lo = tech.vdd, hi = 0.0;
  bool any = false;
  for (double vcm = 0.0; vcm <= tech.vdd + 1e-12; vcm += v_step) {
    for (const auto& src : topo.input_sources) {
      topo.netlist.vsource(src).dc = vcm;
    }
    bool ok = false;
    try {
      ok = operating_point(topo, tech).saturation_ok;
    } catch (const ConvergenceError&) {
      ok = false;
    }
    if (ok) {
      lo = std::min(lo, vcm);
      hi = std::max(hi, vcm);
      any = true;
    }
  }

  if (!any) return std::nullopt;
  return std::make_pair(lo, hi);
}

}  // namespace ota::spice
