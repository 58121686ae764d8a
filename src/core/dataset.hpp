// Data generation (paper Section IV-A).
//
// Reproduces the OCEAN-scripted procedure: sweep transistor widths over
// 0.7-50 um under the topology's matching constraints, simulate each candidate
// with minispice, enforce the operating-region filters (differential pairs
// weak, mirrors strong inversion — expressed as inversion-coefficient bounds
// on each match group), and keep designs whose {gain, BW, UGF} fall in the
// topology's Table I specification window.  Each retained design records the
// per-device small-signal parameters the transformer learns to predict.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/topologies.hpp"
#include "common/rng.hpp"
#include "spice/testbench.hpp"

namespace ota::core {

/// The paper's specification triple.
struct Specs {
  double gain_db = 0.0;
  double bw_hz = 0.0;
  double ugf_hz = 0.0;
};

/// Table I-style specification window.
struct SpecRange {
  double gain_db_min, gain_db_max;
  double bw_hz_min, bw_hz_max;
  double ugf_hz_min, ugf_hz_max;

  bool contains(const Specs& s) const {
    return s.gain_db >= gain_db_min && s.gain_db <= gain_db_max &&
           s.bw_hz >= bw_hz_min && s.bw_hz <= bw_hz_max &&
           s.ugf_hz >= ugf_hz_min && s.ugf_hz <= ugf_hz_max;
  }

  /// The dataset window used for each topology (our technology's analogue of
  /// the paper's Table I rows).
  static SpecRange for_topology(const std::string& name);
};

/// One legal design: widths (one per match group), measured specs, and the
/// captured device parameters.
struct Design {
  std::vector<double> widths;
  Specs specs;
  std::map<std::string, device::SmallSignal> devices;
};

struct DataGenOptions {
  int target_designs = 1000;
  int max_attempts = 200000;
  double w_min = 0.7e-6;   ///< paper sweep lower bound
  double w_max = 50e-6;    ///< paper sweep upper bound
  uint64_t seed = 2024;
  bool enforce_regions = true;     ///< IC-window filters per match group
  bool enforce_saturation = true;  ///< all devices saturated
  bool enforce_spec_range = true;  ///< Table I window filter
  /// Worker threads for the rejection-sampling sweep; 0 = auto (OTA_THREADS
  /// env, else hardware concurrency).  Results are bit-identical for every
  /// value: each attempt index draws from its own counted RNG stream.
  int threads = 0;
  /// AC measurement configuration for the candidates that pass the region
  /// and saturation filters (the only ones whose AC is measured: rejects are
  /// decided at the DC operating point).  Each survivor's gain/BW/UGF
  /// extraction rides one batched transfer_sweep over the cached AC engine;
  /// `measure.threads` stays 1 here because the attempts themselves are
  /// already sharded across the pool.
  spice::MeasureOptions measure{};
};

struct Dataset {
  std::string topology;
  std::vector<Design> designs;
  int attempts = 0;            ///< candidate evaluations (SPICE cost proxy)
  int dc_failures = 0;
  int region_rejects = 0;
  int spec_rejects = 0;
};

/// Generates a dataset for one topology.  Sampling is log-uniform in each
/// match-group width (the continuous analogue of the paper's nested sweeps);
/// the 2S-OTA's second stage uses a current-balance heuristic for the CS
/// width so the high-gain output node biases into its linear window, as a
/// designer's sweep script would.
///
/// The rejection-sampling sweep is sharded over a thread pool (see
/// DataGenOptions::threads).  Attempt k draws from counted stream
/// Rng(opt.seed, k) and workers evaluate disjoint index blocks against their
/// own Topology copies, so the retained designs, the attempt count, and every
/// reject counter are bit-identical for any thread count: the dataset is
/// always "the first target_designs accepted attempts in index order".
Dataset generate_dataset(circuit::Topology& topology,
                         const device::Technology& tech,
                         const SpecRange& range, const DataGenOptions& opt = {});

/// Splits a dataset into train/validation by shuffling with `seed`
/// (paper: 80:20).
std::pair<std::vector<Design>, std::vector<Design>> train_val_split(
    const std::vector<Design>& designs, double val_fraction, uint64_t seed);

}  // namespace ota::core
