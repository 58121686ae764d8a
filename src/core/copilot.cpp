#include "core/copilot.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"

namespace ota::core {

LutSet LutSet::build(const device::Technology& tech, const lut::LutOptions& opt) {
  return LutSet{lut::DeviceLut(device::MosModel(tech.nmos), opt),
                lut::DeviceLut(device::MosModel(tech.pmos), opt)};
}

std::vector<double> widths_from_params(
    const circuit::Topology& topo, const device::Technology& tech,
    const LutSet& luts, const std::map<std::string, double>& params,
    const std::vector<double>& fallback_widths, double w_min, double w_max) {
  if (fallback_widths.size() != topo.match_groups.size()) {
    throw InvalidArgument("widths_from_params: fallback width count mismatch");
  }
  std::vector<double> widths = fallback_widths;
  for (size_t g = 0; g < topo.match_groups.size(); ++g) {
    const std::string& rep = topo.match_groups[g].devices.front();
    const auto& mos = topo.netlist.mosfet(rep);
    const lut::DeviceLut& lut =
        mos.type == device::MosType::Nmos ? luts.nmos : luts.pmos;

    lut::PredictedParams p;
    auto take = [&params](const std::string& key) -> std::optional<double> {
      auto it = params.find(key);
      // NaN and infinities count as missing, like non-positive values.
      if (it == params.end() || !std::isfinite(it->second) || it->second <= 0.0) {
        return std::nullopt;
      }
      return it->second;
    };
    p.gm = take("gm" + rep);
    p.gds = take("gds" + rep);
    p.cds = take("Cds" + rep);
    p.cgs = take("Cgs" + rep);
    p.id = take("Id" + rep);

    std::optional<lut::WidthEstimate> est;
    try {
      if (p.gm && p.id) {
        est = lut::estimate_width(lut, p, tech.vdd);  // Algorithm 1
      } else {
        int available = (p.gm ? 1 : 0) + (p.gds ? 1 : 0) + (p.cds ? 1 : 0) +
                        (p.cgs ? 1 : 0) + (p.id ? 1 : 0);
        if (available >= 2) est = lut::estimate_width_scan(lut, p);
      }
    } catch (const Error&) {
      est.reset();
    }
    if (est && est->width > 0.0) {
      widths[g] = std::clamp(est->width, w_min, w_max);
    }
  }
  return widths;
}

SizingCopilot::SizingCopilot(circuit::Topology topology,
                             const device::Technology& tech,
                             const SequenceBuilder& builder,
                             const Predictor& model, const LutSet& luts)
    : topo_(std::move(topology)), nominal_widths_(topo_.widths()),
      tech_(tech), builder_(builder), model_(model), luts_(luts) {}

bool SizingCopilot::meets(const Specs& achieved, const Specs& target,
                          const CopilotOptions& opt) const {
  return achieved.gain_db >= target.gain_db - opt.gain_tol_db &&
         achieved.bw_hz >= target.bw_hz * (1.0 - opt.rel_tol) &&
         achieved.ugf_hz >= target.ugf_hz * (1.0 - opt.rel_tol);
}

SizingOutcome SizingCopilot::size(const Specs& target,
                                  const CopilotOptions& opt) {
  SerialPredictionClient serial(model_);
  return size(target, opt, serial);
}

SizingOutcome SizingCopilot::size(const Specs& target,
                                  const CopilotOptions& opt,
                                  PredictionClient& stage2) {
  const auto t0 = std::chrono::steady_clock::now();
  // opt.cancel is the one cancellation context for the whole campaign:
  // checked at every stage boundary below, and handed to each Stage-II
  // submit so a scheduler-backed decode can retire from its dynamic batch
  // mid-round.  Throwing Cancelled (rather than returning a partial outcome)
  // keeps the contract simple: a cancelled campaign has no result, and its
  // owner resolves it exactly once.
  SizingOutcome out;
  out.target = target;

  Specs request = target;  // tightened on each miss (margin allocation)
  // Start from the nominal widths, not topo_.widths(): evaluate() mutates the
  // netlist, so the live topology still holds the previous campaign's final
  // sizing.  Campaigns must not see each other through the copilot.
  std::vector<double> widths = nominal_widths_;

  // Best candidate so far (by worst frequency-spec shortfall) for the
  // constant-density refinement rounds.
  std::vector<double> best_widths;
  Specs best_achieved{};
  double best_shortfall = 1e300;

  for (int it = 0; it < opt.max_iterations; ++it) {
    // Stage boundary: a cancelled (or deadline-expired) campaign stops
    // before predicting, not after paying for a decode nobody will read.
    opt.cancel.check("SizingCopilot::size (Stage II boundary)");
    out.iterations = it + 1;

    if (it < opt.prediction_iterations || best_widths.empty()) {
      // Stage II: predict device parameters for the requested specs.  The
      // refinement loop is sequential (each request depends on the previous
      // verification), so from this campaign's view it is submit-then-wait;
      // under a server the submit lands in the shared continuous-batching
      // scheduler where it coalesces with other campaigns' decodes.
      //
      // Injectable transient failure: unlike a Stage-IV ConvergenceError
      // (absorbed below as a hard miss), one thrown here escapes size() —
      // the path the campaign server's bounded retry policy recovers.
      FAULT_SITE_AS("core.predict.submit", ConvergenceError);
      std::string predicted_text;
      {
        STAT_REGION("core.copilot.stage2_predict");
        predicted_text =
            stage2
                .submit(builder_.encoder_text(request), opt.max_decode_tokens,
                        opt.cancel)
                ->wait();
      }
      out.predicted = builder_.parse_decoder(predicted_text);
      // Stage III: parameters -> widths via the LUTs.
      STAT_REGION("core.copilot.stage3_widths");
      widths = widths_from_params(topo_, tech_, luts_, out.predicted, widths);
    } else {
      // Constant-density refinement: scale every width by the largest
      // remaining UGF/BW shortfall of the best verified candidate.  Bias
      // voltages (and the gain) are invariant under this transform; currents,
      // gm and both frequency specs scale with the factor.
      double factor = 1.0;
      if (best_achieved.ugf_hz > 0.0) {
        factor = std::max(factor, target.ugf_hz / best_achieved.ugf_hz);
      }
      if (best_achieved.bw_hz > 0.0) {
        factor = std::max(factor, target.bw_hz / best_achieved.bw_hz);
      }
      factor = std::clamp(factor * opt.margin_boost, 0.25, 4.0);
      widths = best_widths;
      for (double& w : widths) w = std::clamp(w * factor, 0.7e-6, 50e-6);
    }
    out.widths = widths;

    // Stage boundary: last exit before the verification simulation.
    opt.cancel.check("SizingCopilot::size (Stage IV boundary)");

    // Stage IV: one SPICE verification.
    spice::EvalResult r;
    try {
      STAT_REGION("core.copilot.stage4_verify");
      r = spice::evaluate(topo_, tech_, widths, opt.measure);
      ++out.spice_simulations;
    } catch (const ConvergenceError&) {
      ++out.spice_simulations;
      // Treat as a hard miss; tighten mildly and retry.
      request.gain_db += 0.5;
      continue;
    }
    out.achieved = Specs{r.metrics.gain_db, r.metrics.bw_3db_hz, r.metrics.ugf_hz};

    if (meets(out.achieved, target, opt)) {
      out.success = true;
      break;
    }

    const double shortfall = std::max(
        {0.0,
         out.achieved.ugf_hz > 0 ? 1.0 - out.achieved.ugf_hz / target.ugf_hz : 1.0,
         out.achieved.bw_hz > 0 ? 1.0 - out.achieved.bw_hz / target.bw_hz : 1.0,
         (target.gain_db - out.achieved.gain_db) / 20.0});
    if (shortfall < best_shortfall) {
      best_shortfall = shortfall;
      best_widths = widths;
      best_achieved = out.achieved;
    }

    // Margin allocation: tighten each violated spec by its shortfall (plus a
    // small boost), as the paper's example (a 10% gain miss requests 10%
    // tighter gain) prescribes.
    if (out.achieved.gain_db < target.gain_db) {
      request.gain_db += (target.gain_db - out.achieved.gain_db) * opt.margin_boost;
    }
    if (out.achieved.bw_hz < target.bw_hz && out.achieved.bw_hz > 0.0) {
      request.bw_hz *= std::pow(target.bw_hz / out.achieved.bw_hz, 1.0) *
                       opt.margin_boost;
    }
    if (out.achieved.ugf_hz < target.ugf_hz && out.achieved.ugf_hz > 0.0) {
      request.ugf_hz *= (target.ugf_hz / out.achieved.ugf_hz) * opt.margin_boost;
    }
  }

  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0).count();
  return out;
}

}  // namespace ota::core
