// datagen: candidate generation with SPICE (paper Section IV-A).
//
// One pass calls core::generate_dataset for 5T-OTA, CM-OTA and 2S-OTA with a
// fixed number of target designs each, on kThreads threads.  spice, linalg
// and device do almost all the work; ml, nlp and serve do none, so this is
// the workload that moves when AC/DC analysis changes and stays put when
// training or decoding changes.  Pass k of a run samples with
// stream_seed(seed, k), so a run averages over several sampling seeds.
#include <cstdio>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

const char* const kTopologies[] = {"5T-OTA", "CM-OTA", "2S-OTA"};
constexpr int kDesignsPerTopology = 100;
constexpr int kWarmupDesigns = 8;
constexpr int kSetupRepeats = 3;
constexpr int kReplayDesigns = 20;  ///< per topology, for the spice replays

struct Pass {
  std::vector<ota::core::Dataset> datasets;  ///< one per topology
  int64_t designs() const {
    int64_t n = 0;
    for (const auto& d : datasets) n += static_cast<int64_t>(d.designs.size());
    return n;
  }
  int64_t attempts() const {
    int64_t n = 0;
    for (const auto& d : datasets) n += d.attempts;
    return n;
  }
};

class Datagen {
 public:
  void setup() {
    topologies_.clear();
    for (const char* name : kTopologies) {
      topologies_.push_back(ota::circuit::make_topology(name, tech()));
    }
    // Warm-up: the first generate_dataset call in a process runs up to 2-3x
    // slower (pool start-up, first-touch allocation), so set-up pays it.
    run_pass(0xC0FFEE, kWarmupDesigns);
  }

  Pass run_pass(uint64_t seed, int designs) {
    Pass pass;
    for (size_t t = 0; t < topologies_.size(); ++t) {
      ota::core::DataGenOptions opt;
      opt.target_designs = designs;
      opt.max_attempts = designs * 400;
      opt.seed = ota::stream_seed(seed, t);
      opt.threads = kThreads;
      ++attempted_;
      try {
        pass.datasets.push_back(ota::core::generate_dataset(
            topologies_[t], tech(),
            ota::core::SpecRange::for_topology(topologies_[t].name), opt));
      } catch (const ota::Error& e) {
        ++failed_;
        std::fprintf(stderr, "datagen: %s failed: %s\n",
                     topologies_[t].name.c_str(), e.what());
        pass.datasets.emplace_back();
      }
    }
    return pass;
  }

  const std::vector<ota::circuit::Topology>& topologies() const {
    return topologies_;
  }
  int64_t attempted_ = 0;
  int64_t failed_ = 0;

 private:
  std::vector<ota::circuit::Topology> topologies_;
};

/// Timed passes: pass k samples with stream_seed(seed, k).
struct Passes {
  int64_t designs = 0;
  int64_t attempts = 0;
  double wall_s = 0.0;
  /// CPU milliseconds per SPICE attempt of each pass; the median is the
  /// reported cost.  Per attempt, not per design: the accept ratio is a
  /// deterministic property of the sampling seed (cost_per_result), so a
  /// per-design figure would mostly measure which seed ran.
  std::vector<double> cpu_ms_per_attempt;
  Pass first;
  Pass last;
};

Passes run_passes(Datagen& dg, uint64_t seed, double budget) {
  Passes p;
  uint64_t k = 0;
  for (double s : timed_loop(budget, 2, [&] {
         const double c0 = process_cpu_seconds();
         Pass pass = dg.run_pass(ota::stream_seed(seed, k), kDesignsPerTopology);
         p.cpu_ms_per_attempt.push_back((process_cpu_seconds() - c0) * 1e3 /
                                        std::max<int64_t>(1, pass.attempts()));
         p.designs += pass.designs();
         p.attempts += pass.attempts();
         if (k == 0) p.first = pass;
         p.last = std::move(pass);
         ++k;
       })) {
    p.wall_s += s;
  }
  return p;
}

void check_same_pass(Gate& gate, const Pass& a, const Pass& b) {
  gate.check(a.datasets.size() == b.datasets.size(), "datagen pass shape");
  for (size_t t = 0; t < std::min(a.datasets.size(), b.datasets.size()); ++t) {
    const auto& x = a.datasets[t];
    const auto& y = b.datasets[t];
    const std::string tag = std::string("datagen ") + kTopologies[t];
    gate.repeats(x.designs.size(), y.designs.size(), tag + " designs");
    gate.repeats(x.attempts, y.attempts, tag + " attempts");
    gate.repeats(x.dc_failures, y.dc_failures, tag + " dc_failures");
    gate.repeats(x.region_rejects, y.region_rejects, tag + " region_rejects");
    gate.repeats(x.spec_rejects, y.spec_rejects, tag + " spec_rejects");
    bool same_widths = x.designs.size() == y.designs.size();
    for (size_t i = 0; same_widths && i < x.designs.size(); ++i) {
      same_widths = x.designs[i].widths == y.designs[i].widths;
    }
    gate.check(same_widths, tag + " retained widths did not repeat exactly");
  }
}

}  // namespace

Result run_datagen(const Args& args) {
  Result r;
  Datagen dg;
  r.values["setup_s"] =
      median_setup_cpu_seconds(kSetupRepeats, [&] { dg.setup(); });

  const Passes p = run_passes(dg, args.seed, args.seconds);
  const double cpu_ms = median(p.cpu_ms_per_attempt);
  const double designs_per_s = static_cast<double>(p.designs) / p.wall_s;
  r.values["cpu_ms_per_result"] = cpu_ms;
  r.values["core.dataset_designs_per_s"] = designs_per_s;
  r.values["cost_per_result"] =
      static_cast<double>(p.attempts) / static_cast<double>(p.designs);
  r.gate.check(p.designs > 0, "datagen retained no designs");

  // Determinism: pass 0 again, after the timed loop, must repeat exactly.
  check_same_pass(r.gate, p.first,
                  dg.run_pass(ota::stream_seed(args.seed, 0),
                              kDesignsPerTopology));

  char buf[128];
  std::snprintf(buf, sizeof buf, "%.6g designs/s over %zu passes (wall)",
                designs_per_s, p.cpu_ms_per_attempt.size());
  r.summary.emplace_back("designs_per_s", buf);
  std::snprintf(buf, sizeof buf, "%lld designs / %lld SPICE attempts",
                static_cast<long long>(p.designs),
                static_cast<long long>(p.attempts));
  r.summary.emplace_back("datagen_counts", buf);
  for (size_t t = 0; t < p.first.datasets.size(); ++t) {
    const auto& d = p.first.datasets[t];
    std::snprintf(buf, sizeof buf,
                  "%zu designs, %d attempts, %d dc / %d region / %d spec "
                  "rejects",
                  d.designs.size(), d.attempts, d.dc_failures,
                  d.region_rejects, d.spec_rejects);
    r.summary.emplace_back(std::string("pass0.") + kTopologies[t], buf);
    r.deterministic.emplace_back(std::string("pass0.") + kTopologies[t], buf);
  }

  if (args.trace) {
    Passes traced_passes;
    const TraceWindow w = traced(
        [&] { traced_passes = run_passes(dg, args.seed, args.seconds); });
    r.values["trace.overhead_share"] =
        median(traced_passes.cpu_ms_per_attempt) / cpu_ms - 1.0;
    library_layer_metrics(w, r);
    r.values["core.datagen_attempts"] =
        static_cast<double>(traced_passes.attempts);
    r.values["core.datagen_accept_ratio"] =
        static_cast<double>(traced_passes.designs) /
        static_cast<double>(traced_passes.attempts);

    Spans spans;
    SpiceReplay spice{spans};
    for (size_t t = 0; t < dg.topologies().size(); ++t) {
      std::vector<std::vector<double>> widths;
      for (const auto& d : traced_passes.last.datasets[t].designs) {
        if (static_cast<int>(widths.size()) == kReplayDesigns) break;
        widths.push_back(d.widths);
      }
      spice.add(dg.topologies()[t], tech(), widths);
    }
    spice.report(r);
    r.layer_table = layer_table(w, spans, kThreads);
  }
  r.attempted = dg.attempted_;
  r.failed = dg.failed_;
  return r;
}

}  // namespace perfbench
