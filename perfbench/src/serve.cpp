// serve: served sizing campaigns (paper Sections III-D/E, the inference
// phase the paper sells).
//
// A closed loop: kClients client threads each submit one campaign to a
// serve::CampaignServer (kWorkers workers, double decode tier) and wait for
// it before sending the next.  Targets come from core::targets_from_designs
// over the held-out 20% of a fixture corpus; the model is the train
// workload's model trained in set-up on that fixture, so the workload seed
// changes the traffic and never the model.  ml decode, Stage III (lut/core)
// and serve queueing sit on the blocking path; spice verification is a small
// share.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "lut/width_estimator.hpp"
#include "perfbench.hpp"
#include "serve/campaign_server.hpp"

namespace perfbench {

namespace {

constexpr uint64_t kFixtureSeed = 2024;  ///< corpus sampling seed -> the model
constexpr int kTargetsPerDesign = 4;
constexpr int kClients = 4;
constexpr int kWorkers = 4;
constexpr int kSetupRepeats = 3;
constexpr int kWarmupCampaigns = 8;
constexpr int kReferenceSample = 8;   ///< targets re-sized serially
constexpr int kReplayCampaigns = 32;  ///< campaigns replayed per layer
constexpr size_t kRateBlock = 32;     ///< completions per throughput sample

using ota::core::SizingOutcome;
using ota::serve::CampaignResult;
using ota::serve::CampaignServer;
using ota::serve::CampaignStatus;

struct Fixture {
  Corpus corpus;
  std::vector<double> nominal_widths;
  std::shared_ptr<const ota::core::LutSet> luts;
  std::shared_ptr<ota::core::SizingModel> model;
  std::unique_ptr<CampaignServer> server;
  double lut_build_s = 0.0;
  double train_s = 0.0;

  void setup() {
    server.reset();
    corpus = make_corpus(kFixtureSeed);
    nominal_widths = corpus.topology->widths();
    auto t0 = Clock::now();
    luts = std::make_shared<const ota::core::LutSet>(
        ota::core::LutSet::build(tech()));
    lut_build_s = seconds_since(t0);
    t0 = Clock::now();
    model = std::make_shared<ota::core::SizingModel>();
    model->train(corpus.pairs, tiny_train_options());
    train_s = seconds_since(t0);
    CampaignServer::Options opt;
    opt.workers = kWorkers;
    server = std::make_unique<CampaignServer>(opt);
    server->register_topology("5T-OTA", *corpus.topology, tech(), model, luts);
    // Warm-up campaigns: the first decodes and verifications of a fresh
    // server pay first-use costs that steady-state serving does not.
    const auto warm = ota::core::targets_from_designs(corpus.val,
                                                      kWarmupCampaigns, 0.05, 1);
    std::vector<std::shared_ptr<CampaignServer::Job>> jobs;
    for (const auto& t : warm) jobs.push_back(server->submit({"5T-OTA", t}));
    for (auto& j : jobs) j->wait();
  }
};

/// kTargetsPerDesign targets from each held-out design, interleaved so every
/// prefix of the list covers the designs evenly.  Stratifying keeps the
/// design mix fixed, so the seed moves only the per-target spec relaxation
/// and run-to-run spread measures the server, not which designs were drawn.
std::vector<ota::core::Specs> make_targets(
    const std::vector<ota::core::Design>& val, uint64_t seed) {
  std::vector<std::vector<ota::core::Specs>> per_design;
  for (size_t k = 0; k < val.size(); ++k) {
    per_design.push_back(ota::core::targets_from_designs(
        {val[k]}, kTargetsPerDesign, 0.05, ota::stream_seed(seed, k)));
  }
  std::vector<ota::core::Specs> targets;
  for (int j = 0; j < kTargetsPerDesign; ++j) {
    for (const auto& d : per_design) targets.push_back(d[static_cast<size_t>(j)]);
  }
  return targets;
}

struct Served {
  int index = 0;  ///< position in the target list
  CampaignResult result;
  double latency_s = 0.0;  ///< submit to result, client side
  double done_s = 0.0;     ///< completion, seconds after the loop started
  double done_cpu_s = 0.0; ///< process CPU seconds at completion
};

struct Loop {
  std::vector<Served> served;
  double wall_s = 0.0;
  int64_t submit_errors = 0;
  uint64_t server_submitted = 0;  ///< server-side delta over the loop
  uint64_t server_resolved = 0;
  ota::ml::DecodeScheduler::Stats decode_before, decode_after;
};

/// Closed loop until `seconds` elapsed and every target was served once.
Loop closed_loop(CampaignServer& server,
                 const std::vector<ota::core::Specs>& targets, double seconds) {
  Loop loop;
  const auto before = server.stats();
  loop.decode_before = before.decode;
  std::atomic<int> next{0};
  std::mutex mu;
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<Served> mine;
      int64_t errors = 0;
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= static_cast<int>(targets.size()) &&
            seconds_since(start) >= seconds) {
          break;
        }
        const auto t0 = Clock::now();
        try {
          auto job = server.submit(
              {"5T-OTA", targets[static_cast<size_t>(i) % targets.size()]});
          Served s;
          s.index = i % static_cast<int>(targets.size());
          s.result = job->wait();
          s.latency_s = seconds_since(t0);
          s.done_s = seconds_since(start);
          s.done_cpu_s = process_cpu_seconds();
          mine.push_back(std::move(s));
        } catch (const ota::Error& e) {
          ++errors;
          std::fprintf(stderr, "serve: submit failed: %s\n", e.what());
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      loop.submit_errors += errors;
      for (auto& s : mine) loop.served.push_back(std::move(s));
    });
  }
  for (auto& t : clients) t.join();
  loop.wall_s = seconds_since(start);
  const auto after = server.stats();
  loop.decode_after = after.decode;
  loop.server_submitted = after.submitted - before.submitted;
  loop.server_resolved = (after.served + after.failed + after.cancelled) -
                         (before.served + before.failed + before.cancelled);
  return loop;
}

struct Rates {
  double campaigns_per_s = 0.0;     ///< wall clock
  double cpu_ms_per_campaign = 0.0;
};

/// Medians over blocks of kRateBlock consecutive completions, so a short
/// stall on a shared host moves one block, not the figure.
Rates rates(const Loop& loop) {
  std::vector<std::pair<double, double>> done;  // (wall, cpu) at completion
  for (const auto& s : loop.served) done.emplace_back(s.done_s, s.done_cpu_s);
  std::sort(done.begin(), done.end());
  std::vector<double> per_s, cpu_ms;
  for (size_t i = kRateBlock; i < done.size(); i += kRateBlock) {
    const auto& [w0, c0] = done[i - kRateBlock];
    const auto& [w1, c1] = done[i];
    per_s.push_back(kRateBlock / (w1 - w0));
    cpu_ms.push_back((c1 - c0) * 1e3 / kRateBlock);
  }
  return {median(per_s), median(cpu_ms)};
}

/// The PredictedParams Stage III builds for one match group (mirrors
/// core::widths_from_params, which keeps the per-group logic private).
ota::lut::PredictedParams group_params(const ota::circuit::Topology& topo,
                                       size_t group,
                                       const std::map<std::string, double>& p) {
  const std::string& rep = topo.match_groups[group].devices.front();
  auto take = [&p](const std::string& key) -> std::optional<double> {
    auto it = p.find(key);
    if (it == p.end() || it->second <= 0.0) return std::nullopt;
    return it->second;
  };
  ota::lut::PredictedParams pp;
  pp.gm = take("gm" + rep);
  pp.gds = take("gds" + rep);
  pp.cds = take("Cds" + rep);
  pp.cgs = take("Cgs" + rep);
  pp.id = take("Id" + rep);
  return pp;
}

void replay_stage3(const Fixture& f, const std::vector<const SizingOutcome*>& outs,
                   Spans& spans, Result& r) {
  const auto& topo = *f.corpus.topology;
  const std::vector<double> no_fallback(topo.match_groups.size(), 0.0);
  int64_t groups = 0, fallbacks = 0;
  for (const SizingOutcome* o : outs) {
    std::vector<double> widths;
    spans.time("core.stage3_widths", [&] {
      widths = ota::core::widths_from_params(topo, tech(), *f.luts, o->predicted,
                                             no_fallback);
    });
    for (double w : widths) {
      ++groups;
      if (w == 0.0) ++fallbacks;  // kept the (zero) fallback width
    }
    for (size_t g = 0; g < topo.match_groups.size(); ++g) {
      const auto pp = group_params(topo, g, o->predicted);
      const auto& mos = topo.netlist.mosfet(topo.match_groups[g].devices.front());
      const auto& lut = mos.type == ota::device::MosType::Nmos ? f.luts->nmos
                                                               : f.luts->pmos;
      const int available = (pp.gm ? 1 : 0) + (pp.gds ? 1 : 0) +
                            (pp.cds ? 1 : 0) + (pp.cgs ? 1 : 0) + (pp.id ? 1 : 0);
      try {
        if (pp.gm && pp.id) {
          spans.time("lut.estimate_width",
                     [&] { ota::lut::estimate_width(lut, pp, tech().vdd); });
        } else if (available >= 2) {
          spans.time("lut.estimate_width_scan",
                     [&] { ota::lut::estimate_width_scan(lut, pp); });
        }
      } catch (const ota::Error&) {
        // Stage III treats a throwing estimate as a fallback; not a sample.
      }
    }
  }
  r.values["core.stage3_widths_ms"] = spans.per_call("core.stage3_widths", 1e3);
  r.values["core.stage3_fallback_share"] =
      groups > 0 ? static_cast<double>(fallbacks) / static_cast<double>(groups)
                 : 0.0;
  r.values["lut.estimate_width_us"] = spans.per_call("lut.estimate_width", 1e6);
  r.values["lut.estimate_width_scan_us"] =
      spans.per_call("lut.estimate_width_scan", 1e6);
}

void replay_decode(const Fixture& f, const std::vector<ota::core::Specs>& targets,
                   Spans& spans, Result& r) {
  std::vector<std::vector<ota::nlp::TokenId>> srcs;
  for (int i = 0; i < kReplayCampaigns && i < static_cast<int>(targets.size()); ++i) {
    srcs.push_back(f.model->tokenizer().encode(
        f.corpus.builder->encoder_text(targets[static_cast<size_t>(i)])));
  }
  const int max_tokens = ota::core::CopilotOptions{}.max_decode_tokens;
  auto tokens_per_s = [&](const char* span, ota::ml::Precision precision) {
    size_t tokens = 0;
    spans.time(span, [&] {
      for (const auto& out : f.model->engine().greedy_decode_batch(
               srcs, max_tokens, kThreads, precision)) {
        tokens += out.size();
      }
    });
    return static_cast<double>(tokens) / spans.per_call(span, 1.0);
  };
  r.values["ml.decode_tokens_per_s"] =
      tokens_per_s("ml.decode_batch", ota::ml::Precision::kDouble);
  r.values["ml.decode_f32_tokens_per_s"] =
      tokens_per_s("ml.decode_batch_f32", ota::ml::Precision::kFloat32);
}

}  // namespace

Result run_serve(const Args& args) {
  Result r;
  Fixture f;
  std::vector<double> lut_builds;
  r.values["setup_s"] = median_setup_cpu_seconds(kSetupRepeats, [&] {
    f.setup();
    lut_builds.push_back(f.lut_build_s);
  });
  const auto targets = make_targets(f.corpus.val, args.seed);

  const Loop loop = closed_loop(*f.server, targets, args.seconds);
  std::vector<double> latencies;
  for (const auto& s : loop.served) latencies.push_back(s.latency_s);
  const Rates rate = rates(loop);
  r.values["cpu_ms_per_result"] = rate.cpu_ms_per_campaign;
  r.values["serve.campaigns_per_s"] = rate.campaigns_per_s;
  r.values["serve.campaign_latency_p50_s"] = median(latencies);
  r.values["serve.campaign_latency_p90_s"] = percentile(latencies, 0.9);

  // Exactly-once: every submission resolved once, on both sides.
  r.attempted = static_cast<int64_t>(loop.served.size()) + loop.submit_errors;
  r.gate.check(loop.submit_errors == 0, "serve: a submission was refused");
  r.gate.check(loop.server_submitted == loop.served.size() &&
                   loop.server_resolved == loop.served.size(),
               "serve: every submitted campaign must resolve exactly once");

  // First outcome per target; later cycles of the same target must repeat it
  // bit for bit.  Deterministic figures use the first full cycle.
  std::vector<const CampaignResult*> first(targets.size(), nullptr);
  for (const auto& s : loop.served) {
    if (s.result.status != CampaignStatus::Served) ++r.failed;
    auto& slot = first[static_cast<size_t>(s.index)];
    if (slot == nullptr) {
      slot = &s.result;
    } else if (slot->status == CampaignStatus::Served &&
               s.result.status == CampaignStatus::Served) {
      r.gate.same_outcome(s.result.outcome, slot->outcome,
                          "served campaign repeated for target " +
                              std::to_string(s.index));
    }
  }
  int64_t met = 0, sims = 0, iterations = 0, nominal = 0, resolved = 0;
  std::vector<const SizingOutcome*> outcomes;
  for (const CampaignResult* res : first) {
    r.gate.check(res != nullptr, "serve: a target was never served");
    if (res == nullptr) continue;
    ++resolved;
    if (res->status != CampaignStatus::Served) continue;
    const auto& o = res->outcome;
    outcomes.push_back(&o);
    met += o.success ? 1 : 0;
    sims += o.spice_simulations;
    iterations += o.iterations;
    nominal += o.widths == f.nominal_widths ? 1 : 0;
  }
  r.gate.check(met > 0, "serve: no campaign met its spec (degenerate model)");
  if (!r.gate.passed()) return r;
  const double n = static_cast<double>(resolved);
  r.values["cost_per_result"] = static_cast<double>(sims) / n;

  // Served outcomes must be bit-identical to the serial copilot.
  ota::core::SizingCopilot copilot(*f.corpus.topology, tech(), *f.corpus.builder,
                                   *f.model, *f.luts);
  for (int k = 0; k < kReferenceSample; ++k) {
    const size_t i = static_cast<size_t>(k) * targets.size() / kReferenceSample;
    if (first[i]->status != CampaignStatus::Served) continue;
    r.gate.same_outcome(first[i]->outcome, copilot.size(targets[i]),
                        "served campaign " + std::to_string(i) +
                            " vs serial SizingCopilot::size");
  }

  char buf[160];
  std::snprintf(buf, sizeof buf, "%.6g campaigns/s (wall; %zu campaigns, %d clients)",
                rate.campaigns_per_s, loop.served.size(), kClients);
  r.summary.emplace_back("campaigns_per_s", buf);
  std::snprintf(buf, sizeof buf, "%.6g s (p90 %.6g s)", median(latencies),
                percentile(latencies, 0.9));
  r.summary.emplace_back("campaign_latency_p50_s", buf);
  std::snprintf(buf, sizeof buf, "%lld / %lld", static_cast<long long>(met),
                static_cast<long long>(resolved));
  r.summary.emplace_back("spec_met_rate", buf);
  std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(sims) / n);
  r.summary.emplace_back("sims_per_campaign", buf);
  std::snprintf(buf, sizeof buf, "met %lld, sims %lld, iterations %lld of %lld",
                static_cast<long long>(met), static_cast<long long>(sims),
                static_cast<long long>(iterations),
                static_cast<long long>(resolved));
  r.deterministic.emplace_back("first_cycle", buf);
  std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(nominal) / n);
  r.summary.emplace_back("nominal_width_share", buf);
  std::snprintf(buf, sizeof buf, "%.4g",
                (loop.decode_after.session_steps - loop.decode_before.session_steps) /
                    std::max(1.0, static_cast<double>(loop.decode_after.rounds -
                                                      loop.decode_before.rounds)));
  r.summary.emplace_back("decode_occupancy", buf);

  if (args.trace) {
    Loop traced_loop;
    const TraceWindow w =
        traced([&] { traced_loop = closed_loop(*f.server, targets, args.seconds); });
    r.values["trace.overhead_share"] =
        rates(traced_loop).cpu_ms_per_campaign / rate.cpu_ms_per_campaign - 1.0;
    library_layer_metrics(w, r);

    r.values["core.stage2_predict_ms"] =
        w.per_call("core.copilot.stage2_predict", 1e3);
    r.values["core.stage4_verify_ms"] = w.per_call("core.copilot.stage4_verify", 1e3);
    r.values["core.iterations_per_campaign"] = static_cast<double>(iterations) / n;
    r.values["core.spec_met_rate"] = static_cast<double>(met) / n;
    r.values["core.nominal_width_share"] = static_cast<double>(nominal) / n;
    r.values["lut.build_s"] = median(lut_builds);

    const auto& d0 = traced_loop.decode_before;
    const auto& d1 = traced_loop.decode_after;
    const double decodes = static_cast<double>(d1.served - d0.served);
    r.values["ml.tokens_per_decode"] =
        decodes > 0 ? static_cast<double>(d1.session_steps - d0.session_steps) / decodes
                    : 0.0;
    const double rounds = static_cast<double>(w.count("ml.scheduler.round"));
    r.values["ml.scheduler_round_ms"] = w.per_call("ml.scheduler.round", 1e3);
    r.values["ml.scheduler_occupancy"] =
        rounds > 0 ? static_cast<double>(w.count("ml.scheduler.batch_sessions")) / rounds
                   : 0.0;
    r.values["ml.scheduler_busy_share"] =
        w.seconds("ml.scheduler.round") / w.wall_seconds;

    std::vector<double> queue_ms;
    double retries = 0.0, failed = 0.0;
    for (const auto& s : traced_loop.served) {
      queue_ms.push_back(s.result.queue_seconds * 1e3);
      retries += s.result.retries;
      failed += s.result.status == CampaignStatus::Failed ? 1.0 : 0.0;
    }
    r.values["serve.queue_wait_p50_ms"] = median(queue_ms);
    r.values["serve.retries"] = retries;
    r.values["serve.failed"] = failed;

    Spans spans;
    const std::vector<const SizingOutcome*> replayed(
        outcomes.begin(),
        outcomes.begin() + std::min<long>(kReplayCampaigns,
                                          static_cast<long>(outcomes.size())));
    replay_stage3(f, replayed, spans, r);
    replay_decode(f, targets, spans, r);
    SpiceReplay spice{spans};
    std::vector<std::vector<double>> widths;
    for (const SizingOutcome* o : replayed) widths.push_back(o->widths);
    spice.add(*f.corpus.topology, tech(), widths);
    spice.report(r);

    const double bpe_s = replay_bpe(f.corpus, spans, r);
    r.values["ml.train_epoch_s"] =
        (f.train_s - bpe_s) / tiny_train_options().epochs;
    r.layer_table = layer_table(w, spans, kThreads);
  }
  return r;
}

}  // namespace perfbench
