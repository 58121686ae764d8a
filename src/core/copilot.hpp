// Stages III and IV: width estimation glue and the verification "copilot"
// loop with specification-margin allocation (paper Sections III-D/E).
//
// Given a specification target, the copilot asks the transformer for device
// parameters, converts them to widths via the gm/Id LUTs (Algorithm 1, with
// the scan fallback for parameters the differential DP-SFG cannot expose),
// verifies the sized circuit with one minispice simulation, and, on a miss,
// tightens the requested specification by the observed shortfall and retries
// — the paper's designer-in-the-loop margin allocation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "core/prediction_client.hpp"
#include "core/predictor.hpp"
#include "core/sequence_builder.hpp"
#include "lut/width_estimator.hpp"
#include "spice/measure.hpp"

namespace ota::core {

/// The NMOS/PMOS LUT pair (one per polarity, fixed L per the paper).
struct LutSet {
  lut::DeviceLut nmos;
  lut::DeviceLut pmos;

  static LutSet build(const device::Technology& tech,
                      const lut::LutOptions& opt = {});
};

/// Stage III: converts predicted parameter values into one width per match
/// group.  Non-positive and non-finite parameter values count as missing;
/// groups whose parameters are unusable fall back to the previous width in
/// `fallback_widths`.
std::vector<double> widths_from_params(
    const circuit::Topology& topology, const device::Technology& tech,
    const LutSet& luts, const std::map<std::string, double>& params,
    const std::vector<double>& fallback_widths,
    double w_min = 0.7e-6, double w_max = 50e-6);

struct CopilotOptions {
  int max_iterations = 6;      ///< paper: 1 + 3-5 refinement sims
  double gain_tol_db = 0.4;    ///< allowed dB shortfall on gain
  double rel_tol = 0.05;       ///< allowed relative shortfall on BW / UGF
  double margin_boost = 1.05;  ///< extra tightening beyond the raw shortfall
  int max_decode_tokens = 800;
  /// After this many transformer rounds, remaining iterations refine the best
  /// candidate by constant-density width scaling: multiplying every width by
  /// a common factor keeps all bias voltages (hence the gain) and scales all
  /// currents, gm and UGF/BW linearly — the gm/Id-methodology scaling step.
  int prediction_iterations = 3;
  /// AC measurement configuration for the Stage IV verification simulation
  /// (one batched sweep per candidate).  `measure.threads` stays 1 here
  /// because campaigns shard whole sizing runs across the pool.
  spice::MeasureOptions measure{};
  /// Cooperative cancellation for the whole campaign: once its flag is set
  /// or its deadline passes, size() throws ota::Cancelled at the next stage
  /// boundary, and any in-flight scheduler-backed decode retires from the
  /// dynamic batch mid-round.  Default = never cancelled.  Under a
  /// CampaignServer the flag is owned by the job (use Job::cancel()); the
  /// deadline is honoured.
  CancelSignal cancel{};
};

struct SizingOutcome {
  bool success = false;
  int iterations = 0;        ///< transformer inference rounds
  int spice_simulations = 0; ///< verification simulations performed
  Specs target;              ///< the user's requirement
  Specs achieved;            ///< measured specs of the final sizing
  std::vector<double> widths;
  std::map<std::string, double> predicted;  ///< last parameter prediction
  double seconds = 0.0;
};

/// The Stage I-IV inference loop for one topology.
class SizingCopilot {
 public:
  SizingCopilot(circuit::Topology topology, const device::Technology& tech,
                const SequenceBuilder& builder, const Predictor& model,
                const LutSet& luts);

  /// Sizes the OTA for `target` (specs are treated as minimum requirements).
  /// Stage-II predictions run through the serial reference client (an
  /// inline batch of one on the calling thread — the bit-identity baseline).
  SizingOutcome size(const Specs& target, const CopilotOptions& opt = {});

  /// As above, with Stage-II predictions submitted through `stage2` —
  /// under a campaign server this is the continuous-batching scheduler
  /// client, so concurrent campaigns' decodes coalesce on one engine.  The
  /// outcome (everything except the wall-clock `seconds`) is bit-identical
  /// to the serial overload for any scheduler/batch configuration.
  SizingOutcome size(const Specs& target, const CopilotOptions& opt,
                     PredictionClient& stage2);

 private:
  bool meets(const Specs& achieved, const Specs& target,
             const CopilotOptions& opt) const;

  circuit::Topology topo_;
  /// Widths the topology arrived with.  Every size() call starts from these,
  /// not from whatever the previous campaign's verification simulations left
  /// in topo_ — campaigns are hermetic, so a serial loop over one copilot is
  /// bit-identical to a fresh copilot (or server worker) per campaign.
  std::vector<double> nominal_widths_;
  const device::Technology& tech_;
  const SequenceBuilder& builder_;
  const Predictor& model_;
  const LutSet& luts_;
};

}  // namespace ota::core
