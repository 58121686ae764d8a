// perfbench: the repeatable benchmark of the datagen -> train -> serve
// pipeline.  Usually launched through perfbench/run.py, which builds this
// binary first:
//
//   perfbench --workload datagen|train|serve --seed N --seconds S --trace 0|1
//             [--commit ID] [--results PATH]
//   perfbench --self-test      correctness-gate self-test
//   perfbench --list-metrics   the metric catalogue as JSON
//
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1.  The exit code is non-zero when a correctness check fails.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench.hpp"

namespace {

using perfbench::MetricSpec;
using perfbench::Result;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Steal and total ticks of the aggregate cpu line of /proc/stat: how much
/// CPU time the hypervisor took from this machine, to read wall-clock
/// figures against.
std::pair<double, double> steal_and_total_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0, v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Host and build label attached to every result.
std::vector<std::pair<std::string, std::string>> host_label(
    const perfbench::Args& args, const std::string& commit) {
  return {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu", cpu_model()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"threads", std::to_string(perfbench::kThreads)},
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"commit", commit},
  };
}

/// Renders {"name": {"value": v, "unit": u}, ...} over a catalogue.  A
/// non-finite value fails the gate (JSON cannot carry it) and reads 0.
std::string metrics_json(const std::vector<MetricSpec>& specs, Result& r) {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = r.values.find(specs[i].name);
    double v = it == r.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      r.gate.check(false, std::string("metric ") + specs[i].name +
                              " is not finite");
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += std::string(i ? ", " : "") + "\"" + specs[i].name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

std::string names_json(const std::vector<MetricSpec>& specs) {
  std::string out = "[";
  for (size_t i = 0; i < specs.size(); ++i) {
    out += std::string(i ? ", " : "") + "{\"name\": \"" + specs[i].name +
           "\", \"unit\": \"" + specs[i].unit + "\", \"better\": \"" +
           specs[i].better + "\"}";
  }
  return out + "]";
}

/// Feeds the gate a perturbed outcome, a wrong count, a drifted trajectory
/// and a non-finite metric; every one must make the gate fail, and the
/// unperturbed inputs must pass.
int self_test() {
  int broken = 0;
  auto expect = [&](bool gate_passed, bool want, const char* what) {
    std::printf("self-test %-44s %s\n", what,
                gate_passed == want ? "ok" : "BROKEN");
    if (gate_passed != want) ++broken;
  };
  ota::core::SizingOutcome ref;
  ref.success = true;
  ref.iterations = 3;
  ref.spice_simulations = 3;
  ref.widths = {1e-6, 2e-6, 3e-6};
  ref.predicted = {{"gmM1", 1e-3}, {"IdM1", 1e-4}};
  ref.achieved = {20.0, 5e6, 100e6};
  {
    perfbench::Gate g;
    g.same_outcome(ref, ref, "identical outcome");
    expect(g.passed(), true, "identical outcome passes");
  }
  {
    perfbench::Gate g;
    auto got = ref;
    got.achieved.gain_db = std::nextafter(ref.achieved.gain_db, 100.0);
    g.same_outcome(got, ref, "perturbed outcome");
    expect(g.passed(), false, "outcome off by one ulp fails");
  }
  {
    perfbench::Gate g;
    auto got = ref;
    got.predicted["gmM1"] *= 1.0 + 1e-12;
    g.same_outcome(got, ref, "perturbed prediction");
    expect(g.passed(), false, "perturbed prediction fails");
  }
  {
    perfbench::Gate g;
    g.repeats(int64_t{4096}, int64_t{4097}, "attempts");
    expect(g.passed(), false, "wrong count fails");
  }
  {
    perfbench::Gate g;
    g.repeats(std::vector<double>{2.5, 1.25},
              std::vector<double>{2.5, std::nextafter(1.25, 2.0)},
              "val_loss trajectory");
    expect(g.passed(), false, "drifted loss trajectory fails");
  }
  {
    perfbench::Gate g;
    g.repeats(int64_t{7}, int64_t{7}, "sims");
    expect(g.passed(), true, "repeated count passes");
  }
  {
    Result r;
    r.values["setup_s"] = std::nan("");
    metrics_json(perfbench::end_to_end_metrics(), r);
    expect(r.gate.passed(), false, "non-finite metric fails");
  }
  std::printf("self-test: %s\n", broken == 0 ? "PASS" : "FAIL");
  return broken == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload datagen|train|serve "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--results PATH]\n       perfbench --self-test | "
               "--list-metrics\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  std::string results_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (a == "--list-metrics") {
      std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
                  names_json(perfbench::end_to_end_metrics()).c_str(),
                  names_json(perfbench::per_layer_metrics()).c_str());
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (a == "--commit") {
        commit = v;
      } else if (a == "--results") {
        results_path = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  const auto label = host_label(args, commit);
  std::printf("perfbench");
  for (const auto& [k, v] : label) std::printf(" %s=\"%s\"", k.c_str(), v.c_str());
  std::printf("\n");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::printf("WARNING: build type is '%s', not Release; timings are not "
                "comparable\n",
                PERFBENCH_BUILD_TYPE);
  }
  std::fflush(stdout);

  Result r;
  const auto ticks0 = steal_and_total_ticks();
  try {
    if (args.workload == "datagen") {
      r = perfbench::run_datagen(args);
    } else if (args.workload == "train") {
      r = perfbench::run_train(args);
    } else if (args.workload == "serve") {
      r = perfbench::run_serve(args);
    } else {
      usage("--workload must be datagen, train or serve");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  r.values["peak_rss_mb"] = perfbench::peak_rss_mb();
  const auto ticks1 = steal_and_total_ticks();
  if (ticks1.second > ticks0.second) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f of all CPU ticks during the run",
                  (ticks1.first - ticks0.first) / (ticks1.second - ticks0.second));
    r.summary.emplace_back("host_steal_share", buf);
  }

  const auto& specs = args.trace ? perfbench::per_layer_metrics()
                                 : perfbench::end_to_end_metrics();
  const std::string metrics = metrics_json(specs, r);

  for (const auto& [k, v] : r.summary) std::printf("  %-28s %s\n", k.c_str(), v.c_str());
  for (const auto& s : specs) {
    auto it = r.values.find(s.name);
    std::printf("  %-34s %.6g %s\n", s.name,
                it == r.values.end() ? 0.0 : it->second, s.unit);
  }
  if (!r.layer_table.empty()) std::printf("%s", r.layer_table.c_str());
  for (const auto& f : r.gate.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());

  const bool correct = r.gate.passed();
  if (!results_path.empty()) {
    std::ofstream out(results_path);
    out << "{\"host\": {";
    for (size_t i = 0; i < label.size(); ++i) {
      out << (i ? ", " : "") << "\"" << label[i].first << "\": \""
          << json_escape(label[i].second) << "\"";
    }
    out << "}, \"summary\": {";
    for (size_t i = 0; i < r.summary.size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(r.summary[i].first)
          << "\": \"" << json_escape(r.summary[i].second) << "\"";
    }
    out << "}, \"deterministic\": {";
    for (size_t i = 0; i < r.deterministic.size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(r.deterministic[i].first)
          << "\": \"" << json_escape(r.deterministic[i].second) << "\"";
    }
    out << "}, \"failures\": [";
    for (size_t i = 0; i < r.gate.failures().size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(r.gate.failures()[i]) << "\"";
    }
    out << "], \"layer_table\": \"" << json_escape(r.layer_table)
        << "\", \"metrics\": " << metrics << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}
