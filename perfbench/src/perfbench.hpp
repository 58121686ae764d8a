// Shared pieces of the pipeline benchmark: run arguments, the correctness
// gate, timing helpers, the metric catalogue and the traced-run layer table.
//
// Each workload (datagen.cpp, train.cpp, serve.cpp) measures one phase of the
// paper's pipeline from outside the library: it times calls into public
// functions, reads the ota::stats report, and replays single-layer calls on
// the workload's own inputs.  See perfbench/README.md for the metric map.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/copilot.hpp"
#include "core/dataset.hpp"
#include "core/sequence_builder.hpp"
#include "core/sizing_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Worker threads for every workload (the program plus its load generator
/// stay within this many busy threads).
constexpr int kThreads = 4;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Collects named correctness failures.  A run whose gate has any failure
/// prints its result with "correct": false and exits non-zero.
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  /// Served or replayed outcome vs its reference, bit for bit (everything
  /// except the wall-clock seconds).
  void same_outcome(const ota::core::SizingOutcome& got,
                    const ota::core::SizingOutcome& want,
                    const std::string& what);
  /// A deterministic count or trajectory must repeat exactly.
  template <typename T>
  void repeats(const T& first, const T& again, const std::string& what) {
    check(first == again, what + " did not repeat exactly");
  }
  bool passed() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// What one workload run produces.  `values` holds measured metrics by
/// catalogue name; catalogue names a workload does not measure report 0
/// (the layer is not on that workload's path).
struct Result {
  std::map<std::string, double> values;
  /// The issue-level figures under their workload-specific names, printed
  /// in the human-readable summary (e.g. designs_per_s, train_val_loss).
  std::vector<std::pair<std::string, std::string>> summary;
  /// Exact renderings of the counts and trajectories that must repeat
  /// bit for bit across runs of the same code and seed; run.py compares
  /// them with the previous run's.
  std::vector<std::pair<std::string, std::string>> deterministic;
  int64_t attempted = 0;
  int64_t failed = 0;
  Gate gate;
  std::string layer_table;  ///< traced runs only
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// End-to-end metrics, reported by every workload with --trace 0.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by every workload with --trace 1.
const std::vector<MetricSpec>& per_layer_metrics();

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);
double peak_rss_mb();

/// CPU seconds this process has used, all threads.  Timed figures that carry
/// a bound are CPU time: on a shared host the wall clock of a 4-thread run
/// swings 2-3x with the time the hypervisor steals, CPU time by ~10%.
double process_cpu_seconds();

/// Runs `setup` `repeats` times and returns the median CPU seconds of one
/// set-up, so a single slow draw does not become the reported figure.
double median_setup_cpu_seconds(int repeats, const std::function<void()>& setup);

/// Runs `op` until `seconds` have elapsed and at least `min_ops` ran;
/// returns each call's duration in seconds.
std::vector<double> timed_loop(double seconds, int min_ops,
                               const std::function<void()>& op);

/// Stats sites accumulated over one traced window.
struct TraceWindow {
  std::map<std::string, ota::stats::SiteTotals> sites;
  double wall_seconds = 0.0;

  uint64_t count(const std::string& site) const;
  double seconds(const std::string& site) const;
  /// Region seconds per call in `scale` units (1e3 = ms, 1e6 = us); 0 when
  /// the site never ran.
  double per_call(const std::string& site, double scale) const;
};

/// Resets ota::stats, runs `fn` with collection on, and returns what the
/// library recorded.
TraceWindow traced(const std::function<void()>& fn);

/// Benchmark-side spans: total seconds and calls of each public-function
/// replay, shown in the layer table next to the library's own regions.
struct Spans {
  std::map<std::string, std::pair<uint64_t, double>> totals;
  template <typename Fn>
  void time(const std::string& name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    auto& [calls, secs] = totals[name];
    ++calls;
    secs += seconds_since(t0);
  }
  double per_call(const std::string& name, double scale) const;
};

/// Serial replays of spice::evaluate, solve_dc and AcAnalysis + measure_ac
/// on sized designs, plus the LU factor count per measure_ac.
struct SpiceReplay {
  Spans& spans;
  uint64_t measures = 0;
  uint64_t lu_factors = 0;

  void add(ota::circuit::Topology topology,
           const ota::device::Technology& tech,
           const std::vector<std::vector<double>>& widths);
  void report(Result& r) const;
};

/// Layer metrics read from the library's own stats regions and counters
/// (spice DC, linalg LU, ml GEMM, par dispatch).
void library_layer_metrics(const TraceWindow& w, Result& r);

/// Formats the per-layer table of a traced window: count, time per call and
/// share of wall time x threads for every library region (inclusive) and
/// every benchmark span.
std::string layer_table(const TraceWindow& window, const Spans& spans,
                        int threads);

/// The process-wide 65 nm technology every workload sizes against.
const ota::device::Technology& tech();

/// A 5T-OTA corpus: the 80/20 split of a generated 250-design dataset and
/// the (encoder, decoder) text pairs of its training side.
struct Corpus {
  std::unique_ptr<ota::circuit::Topology> topology;
  std::vector<ota::core::Design> train;
  std::vector<ota::core::Design> val;
  std::unique_ptr<ota::core::SequenceBuilder> builder;
  std::vector<std::pair<std::string, std::string>> pairs;
};
Corpus make_corpus(uint64_t sampling_seed);

/// The OTA_SCALE=tiny model shape on kThreads threads.
ota::core::TrainOptions tiny_train_options();

/// Replays BpeTokenizer::train on both sides of the corpus; records and
/// returns nlp.bpe_train_s.
double replay_bpe(const Corpus& corpus, Spans& spans, Result& r);

Result run_datagen(const Args& args);
Result run_train(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench
