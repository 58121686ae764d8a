#include "core/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "par/thread_pool.hpp"

namespace ota::core {

SpecRange SpecRange::for_topology(const std::string& name) {
  // Windows measured on the default65nm technology; same structure as the
  // paper's Table I (single-stage OTAs around 20 dB with tens-to-hundreds of
  // MHz UGF, the two-stage OTA higher gain with a much lower bandwidth).
  if (name == "5T-OTA") {
    return SpecRange{16.0, 26.0, 2e6, 60e6, 30e6, 900e6};
  }
  if (name == "CM-OTA") {
    return SpecRange{14.0, 26.0, 2e6, 90e6, 20e6, 1200e6};
  }
  if (name == "2S-OTA") {
    return SpecRange{26.0, 48.0, 0.05e6, 8e6, 10e6, 500e6};
  }
  throw InvalidArgument("SpecRange: unknown topology '" + name + "'");
}

namespace {

// For the 2S-OTA the common-source width must roughly balance the
// current-source load or the output node rails out; mirror what a designer's
// sweep script does and derive it from the sampled widths with jitter.
double balanced_cs_width(circuit::Topology& topo,
                         const device::Technology& tech,
                         const std::vector<double>& widths, Rng& rng) {
  // Current density ratio of the second-stage devices at their nominal gate
  // drives: M6 (PMOS at Vsg = vbias_p_delta), M7 (NMOS at the first-stage
  // output level, roughly Vdd - Vsg(M1 diode)).
  circuit::Netlist& nl = topo.netlist;
  const device::MosModel pmos(tech.pmos);
  const device::MosModel nmos(tech.nmos);
  const auto& m6 = nl.mosfet("M6");
  const double vsg6 = tech.vdd - nl.vsource("VBP").dc;
  const double id6 = pmos.evaluate(vsg6, tech.vdd / 2.0, m6.w, m6.l).id;

  // Estimate the first-stage output level from the diode load's density.
  const auto& m1 = nl.mosfet("M1");
  const double i_branch =
      nmos.evaluate(nl.vsource("VB").dc, 0.3, widths[2], m1.l).id / 2.0;
  double vsg1 = 0.55;
  for (int it = 0; it < 30; ++it) {  // fixed-point on the diode equation
    const double id = pmos.evaluate(vsg1, vsg1, widths[0], m1.l).id;
    vsg1 += 0.05 * (i_branch - id) / std::max(i_branch, 1e-9);
    vsg1 = std::clamp(vsg1, 0.3, 1.0);
  }
  const double vgs7 = tech.vdd - vsg1;
  const double id7_per_m = nmos.evaluate(vgs7, tech.vdd / 2.0, 1e-6, m1.l).id / 1e-6;
  if (id7_per_m <= 0.0) return widths[0];
  const double w7 = id6 / id7_per_m;
  // Jitter keeps the dataset from collapsing onto the balance manifold.
  return w7 * rng.log_uniform(0.7, 1.4);
}

// One rejection-sampling attempt.  Attempt `index` draws every jitter from
// its own counted stream Rng(seed, index), so the outcome depends only on
// (options, index) — never on which worker ran it or what ran before.
enum class AttemptKind : uint8_t { Accepted, DcFailure, RegionReject, SpecReject };

struct Attempt {
  AttemptKind kind = AttemptKind::DcFailure;
  Design design;
};

Attempt run_attempt(circuit::Topology& topo, const device::Technology& tech,
                    const SpecRange& range, const DataGenOptions& opt,
                    uint64_t index) {
  Rng rng(opt.seed, index);
  const size_t n_groups = topo.match_groups.size();
  const bool two_stage = topo.name == "2S-OTA";

  std::vector<double> widths(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    widths[g] = rng.log_uniform(opt.w_min, opt.w_max);
  }
  if (two_stage) {
    // Groups: load1, dp, tail1, tail2 (M6), cs (M7).
    topo.apply_widths(widths);
    widths[4] = std::clamp(balanced_cs_width(topo, tech, widths, rng),
                           opt.w_min, opt.w_max);
  }
  topo.apply_widths(widths);

  // The region verdict reads only the DC linearisation, so it is decided
  // before any AC matrix is stamped: candidates an enabled filter rejects
  // (most of them) never pay for the AC sweep, and the survivors get exactly
  // the metrics spice::evaluate would have measured.
  Attempt a;
  try {
    spice::OperatingPoint op = spice::operating_point(topo, tech);
    if ((opt.enforce_saturation && !op.saturation_ok) ||
        (opt.enforce_regions && !op.regions_ok)) {
      a.kind = AttemptKind::RegionReject;
      return a;
    }
    const spice::AcAnalysis ac(topo.netlist, tech, op.dc);
    const spice::AcMetrics m =
        spice::measure_ac(ac, topo.output_node, opt.measure);
    const Specs specs{m.gain_db, m.bw_3db_hz, m.ugf_hz};
    if (opt.enforce_spec_range && !range.contains(specs)) {
      a.kind = AttemptKind::SpecReject;
      return a;
    }
    a.kind = AttemptKind::Accepted;
    a.design = Design{std::move(widths), specs, std::move(op.devices)};
  } catch (const ConvergenceError&) {
    a.kind = AttemptKind::DcFailure;
  }
  return a;
}

}  // namespace

Dataset generate_dataset(circuit::Topology& topo,
                         const device::Technology& tech, const SpecRange& range,
                         const DataGenOptions& opt) {
  STAT_REGION("core.dataset.generate");
  Dataset ds;
  ds.topology = topo.name;

  const int threads = par::resolve_threads(opt.threads);

  auto fold = [&ds](Attempt& a) {
    ++ds.attempts;
    switch (a.kind) {
      case AttemptKind::Accepted:
        ds.designs.push_back(std::move(a.design));
        break;
      case AttemptKind::DcFailure: ++ds.dc_failures; break;
      case AttemptKind::RegionReject: ++ds.region_rejects; break;
      case AttemptKind::SpecReject: ++ds.spec_rejects; break;
    }
  };

  if (threads <= 1) {
    // Serial fast path: identical per-attempt counted streams and fold
    // order, one Topology copy total, no end-of-run waste.  The copy keeps
    // the caller's topology untouched, as on the parallel path.
    circuit::Topology worker_topo = topo;
    for (int i = 0; i < opt.max_attempts &&
                    static_cast<int>(ds.designs.size()) < opt.target_designs;
         ++i) {
      Attempt a = run_attempt(worker_topo, tech, range, opt,
                              static_cast<uint64_t>(i));
      fold(a);
    }
    return ds;
  }

  par::ThreadPool pool(threads);
  // Attempts are evaluated in fixed-size blocks and folded into the dataset
  // in index order, stopping at the attempt that fills the target.  Block
  // size only trades end-of-run waste against scheduling overhead; it can
  // never change the result.
  const int block = std::max(threads, std::min(32 * threads, 1024));

  std::vector<Attempt> attempts;
  int base = 0;
  while (base < opt.max_attempts &&
         static_cast<int>(ds.designs.size()) < opt.target_designs) {
    const int m = std::min(block, opt.max_attempts - base);
    attempts.assign(static_cast<size_t>(m), Attempt{});
    pool.parallel_for(static_cast<size_t>(m), [&](size_t begin, size_t end) {
      circuit::Topology worker_topo = topo;
      for (size_t i = begin; i < end; ++i) {
        attempts[i] = run_attempt(worker_topo, tech, range, opt,
                                  static_cast<uint64_t>(base) + i);
      }
    });
    for (int i = 0;
         i < m && static_cast<int>(ds.designs.size()) < opt.target_designs;
         ++i) {
      fold(attempts[static_cast<size_t>(i)]);
    }
    base += m;
  }
  return ds;
}

std::pair<std::vector<Design>, std::vector<Design>> train_val_split(
    const std::vector<Design>& designs, double val_fraction, uint64_t seed) {
  if (val_fraction < 0.0 || val_fraction >= 1.0) {
    throw InvalidArgument("train_val_split: bad fraction");
  }
  std::vector<Design> shuffled = designs;
  Rng rng(seed);
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  const size_t n_val = static_cast<size_t>(
      std::llround(val_fraction * static_cast<double>(shuffled.size())));
  std::vector<Design> val(shuffled.begin(), shuffled.begin() + static_cast<long>(n_val));
  std::vector<Design> train(shuffled.begin() + static_cast<long>(n_val), shuffled.end());
  return {std::move(train), std::move(val)};
}

}  // namespace ota::core
