#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "perfbench.hpp"
#include "spice/testbench.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"cpu_ms_per_result", "ms", "lower"},
      {"cost_per_result", "1", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"spice.evaluate_ms", "ms", "lower"},
      {"spice.solve_dc_ms", "ms", "lower"},
      {"spice.measure_ac_ms", "ms", "lower"},
      {"spice.lu_factors_per_measure", "count", "lower"},
      {"spice.newton_per_dc_solve", "count", "lower"},
      {"spice.gmin_retries", "count", "lower"},
      {"linalg.lu_factors", "count", "lower"},
      {"linalg.lu_factor_us", "us", "lower"},
      {"core.dataset_designs_per_s", "1/s", "higher"},
      {"core.train_examples_per_s", "1/s", "higher"},
      {"core.datagen_accept_ratio", "1", "higher"},
      {"core.datagen_attempts", "count", "lower"},
      {"core.stage2_predict_ms", "ms", "lower"},
      {"core.stage3_widths_ms", "ms", "lower"},
      {"core.stage4_verify_ms", "ms", "lower"},
      {"core.stage3_fallback_share", "1", "lower"},
      {"core.nominal_width_share", "1", "lower"},
      {"core.iterations_per_campaign", "count", "lower"},
      {"core.spec_met_rate", "1", "higher"},
      {"lut.build_s", "s", "lower"},
      {"lut.estimate_width_us", "us", "lower"},
      {"lut.estimate_width_scan_us", "us", "lower"},
      {"ml.train_epoch_s", "s", "lower"},
      {"ml.gemm_calls", "count", "lower"},
      {"ml.gemm_us", "us", "lower"},
      {"ml.decode_tokens_per_s", "1/s", "higher"},
      {"ml.decode_f32_tokens_per_s", "1/s", "higher"},
      {"ml.tokens_per_decode", "count", "lower"},
      {"ml.scheduler_round_ms", "ms", "lower"},
      {"ml.scheduler_occupancy", "count", "higher"},
      {"ml.scheduler_busy_share", "1", "lower"},
      {"nlp.bpe_train_s", "s", "lower"},
      {"serve.campaigns_per_s", "1/s", "higher"},
      {"serve.campaign_latency_p50_s", "s", "lower"},
      {"serve.campaign_latency_p90_s", "s", "lower"},
      {"serve.queue_wait_p50_ms", "ms", "lower"},
      {"serve.retries", "count", "lower"},
      {"serve.failed", "count", "lower"},
      {"par.dispatches", "count", "lower"},
      {"par.items_per_dispatch", "count", "higher"},
      {"trace.overhead_share", "1", "lower"},
  };
  return specs;
}

void Gate::same_outcome(const ota::core::SizingOutcome& got,
                        const ota::core::SizingOutcome& want,
                        const std::string& what) {
  check(got.success == want.success && got.iterations == want.iterations &&
            got.spice_simulations == want.spice_simulations &&
            got.widths == want.widths && got.predicted == want.predicted &&
            got.achieved.gain_db == want.achieved.gain_db &&
            got.achieved.bw_hz == want.achieved.bw_hz &&
            got.achieved.ugf_hz == want.achieved.ugf_hz,
        what + " is not bit-identical to its reference");
}

const ota::device::Technology& tech() {
  static const ota::device::Technology t =
      ota::device::Technology::default65nm();
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median_setup_cpu_seconds(int repeats, const std::function<void()>& setup) {
  std::vector<double> secs;
  for (int i = 0; i < repeats; ++i) {
    const double c0 = process_cpu_seconds();
    setup();
    secs.push_back(process_cpu_seconds() - c0);
  }
  return median(secs);
}

std::vector<double> timed_loop(double seconds, int min_ops,
                               const std::function<void()>& op) {
  std::vector<double> durations;
  const auto start = Clock::now();
  while (static_cast<int>(durations.size()) < min_ops ||
         seconds_since(start) < seconds) {
    const auto t0 = Clock::now();
    op();
    durations.push_back(seconds_since(t0));
  }
  return durations;
}

uint64_t TraceWindow::count(const std::string& site) const {
  auto it = sites.find(site);
  return it == sites.end() ? 0 : it->second.count;
}

double TraceWindow::seconds(const std::string& site) const {
  auto it = sites.find(site);
  return it == sites.end() ? 0.0 : it->second.seconds;
}

double TraceWindow::per_call(const std::string& site, double scale) const {
  const uint64_t n = count(site);
  return n == 0 ? 0.0 : seconds(site) / static_cast<double>(n) * scale;
}

TraceWindow traced(const std::function<void()>& fn) {
  ota::stats::reset();
  ota::stats::enable();
  TraceWindow w;
  const auto t0 = Clock::now();
  try {
    fn();
  } catch (...) {
    ota::stats::disable();
    throw;
  }
  w.wall_seconds = seconds_since(t0);
  ota::stats::disable();
  w.sites = ota::stats::snapshot();
  ota::stats::reset();
  return w;
}

double Spans::per_call(const std::string& name, double scale) const {
  auto it = totals.find(name);
  if (it == totals.end() || it->second.first == 0) return 0.0;
  return it->second.second / static_cast<double>(it->second.first) * scale;
}

void SpiceReplay::add(ota::circuit::Topology topology,
                      const ota::device::Technology& tech,
                      const std::vector<std::vector<double>>& widths) {
  namespace spice = ota::spice;
  std::vector<std::vector<double>> solved_widths;
  std::vector<spice::DcSolution> solutions;
  for (const auto& w : widths) {
    try {
      spans.time("spice.evaluate", [&] { spice::evaluate(topology, tech, w); });
      topology.apply_widths(w);
      spice::DcSolution dc;
      spans.time("spice.solve_dc",
                 [&] { dc = spice::solve_dc(topology.netlist, tech); });
      spans.time("spice.measure_ac", [&] {
        const spice::AcAnalysis ac(topology.netlist, tech, dc);
        spice::measure_ac(ac, topology.output_node);
      });
      solved_widths.push_back(w);
      solutions.push_back(std::move(dc));
    } catch (const ota::ConvergenceError&) {
      // A design the library could not re-solve is not a timing sample.
    }
  }
  // LU factors per measurement, counted in a separate traced pass so the
  // timings above carry no tracing overhead.
  const TraceWindow w = traced([&] {
    for (size_t i = 0; i < solutions.size(); ++i) {
      topology.apply_widths(solved_widths[i]);
      const spice::AcAnalysis ac(topology.netlist, tech, solutions[i]);
      spice::measure_ac(ac, topology.output_node);
    }
  });
  measures += solutions.size();
  lu_factors += w.count("linalg.lu.factor");
}

void SpiceReplay::report(Result& r) const {
  if (measures > 0) {
    r.values["spice.lu_factors_per_measure"] =
        static_cast<double>(lu_factors) / static_cast<double>(measures);
  }
  r.values["spice.evaluate_ms"] = spans.per_call("spice.evaluate", 1e3);
  r.values["spice.solve_dc_ms"] = spans.per_call("spice.solve_dc", 1e3);
  r.values["spice.measure_ac_ms"] = spans.per_call("spice.measure_ac", 1e3);
}

void library_layer_metrics(const TraceWindow& w, Result& r) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double dc_solves = static_cast<double>(w.count("spice.dc.solve"));
  r.values["spice.newton_per_dc_solve"] = ratio(
      static_cast<double>(w.count("spice.dc.newton_iterations")), dc_solves);
  r.values["spice.gmin_retries"] =
      static_cast<double>(w.count("spice.dc.gmin_retries"));
  r.values["linalg.lu_factors"] =
      static_cast<double>(w.count("linalg.lu.factor"));
  r.values["linalg.lu_factor_us"] = w.per_call("linalg.lu.factor", 1e6);
  uint64_t gemm_calls = 0;
  double gemm_s = 0.0;
  for (const char* site : {"ml.gemm.nn", "ml.gemm.nt", "ml.gemm.tn"}) {
    gemm_calls += w.count(site);
    gemm_s += w.seconds(site);
  }
  r.values["ml.gemm_calls"] = static_cast<double>(gemm_calls);
  r.values["ml.gemm_us"] =
      ratio(gemm_s * 1e6, static_cast<double>(gemm_calls));
  const double dispatches = static_cast<double>(w.count("par.pool.dispatch"));
  r.values["par.dispatches"] = dispatches;
  r.values["par.items_per_dispatch"] =
      ratio(static_cast<double>(w.count("par.pool.items")), dispatches);
}

std::string layer_table(const TraceWindow& window, const Spans& spans,
                        int threads) {
  const double capacity = window.wall_seconds * threads;
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "per-layer table (traced window %.3f s x %d threads; library "
                "regions are INCLUSIVE: an outer region contains the ones it "
                "calls)\n",
                window.wall_seconds, threads);
  out += line;
  std::snprintf(line, sizeof line, "  %-34s %-7s %12s %12s %10s\n", "site",
                "kind", "count", "us/call", "share");
  out += line;
  for (const auto& [name, t] : window.sites) {
    if (t.count == 0) continue;
    if (t.kind == ota::stats::Kind::kCounter) {
      std::snprintf(line, sizeof line, "  %-34s %-7s %12llu %12s %10s\n",
                    name.c_str(), "counter",
                    static_cast<unsigned long long>(t.count), "-", "-");
    } else {
      std::snprintf(line, sizeof line, "  %-34s %-7s %12llu %12.3f %9.2f%%\n",
                    name.c_str(), "region",
                    static_cast<unsigned long long>(t.count),
                    t.seconds / static_cast<double>(t.count) * 1e6,
                    capacity > 0 ? 100.0 * t.seconds / capacity : 0.0);
    }
    out += line;
  }
  if (!spans.totals.empty()) {
    out += "benchmark replays (serial, outside the traced window)\n";
    for (const auto& [name, cs] : spans.totals) {
      std::snprintf(line, sizeof line, "  %-34s %-7s %12llu %12.3f %10s\n",
                    name.c_str(), "replay",
                    static_cast<unsigned long long>(cs.first),
                    cs.second / static_cast<double>(cs.first) * 1e6, "-");
      out += line;
    }
  }
  return out;
}

}  // namespace perfbench
