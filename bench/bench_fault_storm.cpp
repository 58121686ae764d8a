// Fault storm: end-to-end failure recovery for the serving path.
//
// Drives the campaign server through deterministic fault injection
// (ota::fault) with a storm spec spanning three layers — serve (worker
// pickup), core (Stage-II predict submit), ml (a mid-decode session step) —
// under concurrent load, then a degradation spec in the numerics (spice
// Newton runs, DC LU factorizations, AC frequency points) that the
// gmin-ladder fallback and Stage-IV hard-miss handling must absorb without a
// single campaign failing.
//
// Gates, enforced through the exit code:
//
//  * storm accounting (always, incl. smoke) — every submitted job resolves
//    exactly once: served + failed == submitted, cancelled == 0.  The three
//    once-faults each fire exactly once (the storm really spanned serve, core
//    and ml), the two permanent faults fail exactly their own campaign
//    (failed == 2), and the transient ConvergenceError is retried within
//    budget (retried == 1) — with the retry recovering unless a later fault
//    lands on the re-run (recovered <= 1);
//  * storm bit-identity (always) — every campaign the storm did NOT touch is
//    bit-identical to the fault-free serial copilot, per index;
//  * post-storm health (always) — after fault::clear() the SAME server
//    serves a probe campaign bit-identically: no worker died, no state leaked;
//  * degradation determinism (always) — with `spice.dc.newton:every=7;
//    linalg.lu.factor:every=101;spice.ac.point:every=499` installed, a
//    serial copilot pass and a 1-worker server pass produce bit-identical
//    outcomes, zero failed campaigns (the ladder + hard-miss paths absorb
//    everything), and identical per-site hit/fired counters, each site
//    firing at least once — the firing stream is a pure function of the hit
//    index, not of which thread got there.
//
// Exact accounting is printed first; lines that depend on thread timing
// (wall clock, per-site hit counts of the storm, which campaign a hit-indexed
// fault lands on) follow under a "timing-dependent:" heading.
//
// OTA_FAULT_SMOKE=1 shrinks the dataset/model and campaign count; the
// Release CI job runs that mode.  Results are written as JSON (path from
// OTA_BENCH_JSON, default BENCH_fault.json) for scripts/bench_snapshot.sh.
//
// OTA_CHAOS_ROUNDS=N (the nightly chaos job) appends a fourth pass: N rounds
// of a randomized `prob=` spec across all eight fault sites at once
// (OTA_CHAOS_PROB, default 0.02; per-round deterministic seeds derived from
// OTA_CHAOS_SEED), gated on exactly-once accounting per round and a
// fault-free bit-identical probe after the last round.
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/fault.hpp"
#include "core/dataset.hpp"
#include "serve/campaign_server.hpp"

namespace {

bool same_outcome(const ota::core::SizingOutcome& a,
                  const ota::core::SizingOutcome& b) {
  return a.success == b.success && a.iterations == b.iterations &&
         a.spice_simulations == b.spice_simulations && a.widths == b.widths &&
         a.predicted == b.predicted &&
         a.achieved.gain_db == b.achieved.gain_db &&
         a.achieved.bw_hz == b.achieved.bw_hz &&
         a.achieved.ugf_hz == b.achieved.ugf_hz;
}

// The storm: one permanent fault at worker pickup (serve layer), one
// transient ConvergenceError at the Stage-II predict submit (core layer,
// recovered by the server's bounded retry), one permanent fault inside a
// decode step (ml layer, surfaced through the scheduler ticket).
constexpr const char* kStormSpec =
    "serve.worker.campaign:once=2;"
    "core.predict.submit:once=5;"
    "ml.session.step:once=29";

// The degradation spec: numerics-layer faults the recovery paths absorb.  The
// DC faults (Newton runs, LU factorizations, which only DC performs) land on
// the gmin ladder; AC point faults land on Stage IV's hard-miss path.
constexpr const char* kDegradeSpec =
    "spice.dc.newton:every=7;linalg.lu.factor:every=101;"
    "spice.ac.point:every=499";

}  // namespace

int main() {
  using namespace ota;
  using namespace ota::benchsupport;
  using Clock = std::chrono::steady_clock;
  const char* smoke_env = std::getenv("OTA_FAULT_SMOKE");
  const bool smoke = smoke_env && std::strcmp(smoke_env, "0") != 0;
  const Scale sc = Scale::from_env();

  std::printf("=== Fault storm: deterministic fault injection across the "
              "serving path (scale '%s'%s) ===\n",
              sc.name.c_str(), smoke ? ", smoke" : "");
  fault::clear();  // the reference passes below must be fault-free

  // One deterministic dataset + model shared by every pass.
  auto topo = circuit::make_topology("5T-OTA", tech());
  core::DataGenOptions gopt;
  gopt.target_designs = smoke ? 60 : 200;
  gopt.max_attempts = gopt.target_designs * 200;
  gopt.seed = 2024;
  const core::Dataset ds = core::generate_dataset(
      topo, tech(), core::SpecRange::for_topology("5T-OTA"), gopt);
  const core::SequenceBuilder builder(topo, tech());
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(ds.designs.size());
  for (const auto& d : ds.designs) {
    pairs.emplace_back(builder.encoder_text(d.specs), builder.decoder_text(d));
  }

  core::TrainOptions topt;
  topt.seed = 17;
  if (smoke) {
    topt.epochs = 2;
    topt.d_model = 32;
    topt.d_ff = 64;
    topt.bpe_merges = 128;
  } else {
    topt.epochs = 4;
    topt.d_model = sc.d_model;
    topt.n_heads = sc.n_heads;
    topt.n_layers = sc.n_layers;
    topt.d_ff = sc.d_ff;
  }
  auto model = std::make_shared<core::SizingModel>();
  std::fprintf(stderr, "[bench] training the shared 5T-OTA model...\n");
  model->train(pairs, topt);
  const auto lut_set =
      std::make_shared<const core::LutSet>(benchsupport::luts());

  const int n_campaigns = smoke ? 12 : 24;
  const auto targets = core::targets_from_designs(ds.designs, n_campaigns, 0.06, 17);
  core::CopilotOptions copt;
  copt.max_iterations = 3;
  copt.max_decode_tokens = smoke ? 96 : 192;

  // Pass 1: fault-free serial reference — the bit-identity baseline for
  // every survivor in the storm and for the post-storm probe.
  std::fprintf(stderr, "[bench] fault-free serial reference (%d campaigns)...\n",
               n_campaigns);
  std::vector<core::SizingOutcome> reference;
  {
    core::SizingCopilot copilot(topo, tech(), builder, *model, *lut_set);
    for (const auto& t : targets) reference.push_back(copilot.size(t, copt));
  }

  // Pass 2: the storm.  8 workers, retry budget 2, the three-layer spec.
  std::fprintf(stderr, "[bench] storm pass (spec '%s')...\n", kStormSpec);
  serve::CampaignServer::Options sopt;
  sopt.workers = 8;
  sopt.max_retries = 2;
  serve::CampaignServer server(sopt);
  server.register_topology("5T-OTA", topo, tech(), model, lut_set);

  fault::install_spec(kStormSpec);
  std::vector<std::shared_ptr<serve::CampaignServer::Job>> jobs;
  const auto storm_t0 = Clock::now();
  for (const auto& t : targets) jobs.push_back(server.submit({"5T-OTA", t, copt}));

  bool survivors_identical = true;
  uint64_t storm_served = 0, storm_failed = 0, storm_cancelled = 0;
  int total_job_retries = 0;
  // Which campaign a hit-indexed fault lands on depends on how the workers
  // interleave, so the failures are reported with the timing-dependent lines.
  std::vector<std::string> storm_failures;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const serve::CampaignResult& res = jobs[i]->wait();  // resolves exactly once
    total_job_retries += res.retries;
    switch (res.status) {
      case serve::CampaignStatus::Served:
        ++storm_served;
        if (!same_outcome(res.outcome, reference[i])) {
          survivors_identical = false;
          std::fprintf(stderr, "DIVERGED: surviving campaign %zu\n", i);
        }
        break;
      case serve::CampaignStatus::Failed:
        ++storm_failed;
        storm_failures.push_back("campaign " + std::to_string(i) +
                                 " failed (expected): " + res.error);
        break;
      case serve::CampaignStatus::Cancelled:
        ++storm_cancelled;
        break;
    }
  }
  const double storm_seconds =
      std::chrono::duration<double>(Clock::now() - storm_t0).count();
  const auto storm_site_stats = fault::stats();
  fault::clear();

  // Every once-fault must have fired exactly once — the storm really did
  // span the serve, core and ml layers.
  bool storm_spanned_layers = true;
  constexpr const char* kStormSites[] = {
      "serve.worker.campaign", "core.predict.submit", "ml.session.step"};
  for (const char* site : kStormSites) {
    const auto it = storm_site_stats.find(site);
    const uint64_t fired = it == storm_site_stats.end() ? 0 : it->second.fired;
    std::printf("storm site %-24s fired %llu\n", site,
                static_cast<unsigned long long>(fired));
    if (fired != 1) storm_spanned_layers = false;
  }

  // Post-storm health: the same server, faults cleared, serves a probe
  // campaign bit-identically.  No worker died, no poisoned state survived.
  auto probe = server.submit({"5T-OTA", targets[0], copt});
  const serve::CampaignResult& probe_res = probe->wait();
  const bool post_storm_healthy =
      probe_res.status == serve::CampaignStatus::Served &&
      same_outcome(probe_res.outcome, reference[0]);
  const auto stats = server.stats();
  server.shutdown();

  const bool storm_accounted =
      stats.submitted == static_cast<uint64_t>(n_campaigns) + 1 &&
      storm_cancelled == 0 && stats.cancelled == 0 &&
      storm_served + storm_failed == static_cast<uint64_t>(n_campaigns) &&
      storm_failed == 2 && stats.failed == 2 &&
      stats.retried == 1 && total_job_retries == 1 && stats.recovered <= 1;

  std::printf("storm: %d campaigns + 1 probe -> %llu served, %llu failed, "
              "%llu cancelled; retried %llu, recovered %llu\n",
              n_campaigns, static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.retried),
              static_cast<unsigned long long>(stats.recovered));
  std::printf("survivors: %s; post-storm probe: %s\n",
              survivors_identical ? "bit-identical to serial copilot"
                                  : "DIVERGED",
              post_storm_healthy ? "served bit-identically" : "UNHEALTHY");

  // Pass 3: degradation — numerics faults the recovery ladders absorb.  The
  // same spec drives a serial copilot and a 1-worker server; outcomes and
  // per-site counters must agree exactly (1 worker => identical hit order).
  const int n_degrade = smoke ? 6 : 10;
  std::fprintf(stderr, "[bench] degradation pass (spec '%s', %d campaigns)...\n",
               kDegradeSpec, n_degrade);
  std::vector<core::SizingOutcome> degrade_serial;
  fault::install_spec(kDegradeSpec);
  {
    core::SizingCopilot copilot(topo, tech(), builder, *model, *lut_set);
    for (int i = 0; i < n_degrade; ++i) {
      degrade_serial.push_back(copilot.size(targets[static_cast<size_t>(i)], copt));
    }
  }
  const auto degrade_serial_stats = fault::stats();
  fault::clear();

  serve::CampaignServer::Options dopt_server;
  dopt_server.workers = 1;  // sequential pickups: hit order matches serial
  serve::CampaignServer degrade_server(dopt_server);
  degrade_server.register_topology("5T-OTA", topo, tech(), model, lut_set);
  fault::install_spec(kDegradeSpec);  // fresh counters, same stream
  std::vector<std::shared_ptr<serve::CampaignServer::Job>> degrade_jobs;
  for (int i = 0; i < n_degrade; ++i) {
    degrade_jobs.push_back(
        degrade_server.submit({"5T-OTA", targets[static_cast<size_t>(i)], copt}));
  }
  bool degrade_identical = true;
  uint64_t degrade_failed = 0;
  for (size_t i = 0; i < degrade_jobs.size(); ++i) {
    const serve::CampaignResult& res = degrade_jobs[i]->wait();
    if (res.status != serve::CampaignStatus::Served) {
      ++degrade_failed;
      std::fprintf(stderr, "FAIL: degraded campaign %zu not served: %s\n", i,
                   res.error.c_str());
    } else if (!same_outcome(res.outcome, degrade_serial[i])) {
      degrade_identical = false;
      std::fprintf(stderr, "DIVERGED: degraded campaign %zu\n", i);
    }
  }
  const auto degrade_server_stats = fault::stats();
  fault::clear();
  degrade_server.shutdown();

  bool degrade_counters_match = true;
  for (const char* site :
       {"spice.dc.newton", "linalg.lu.factor", "spice.ac.point"}) {
    const auto a = degrade_serial_stats.find(site);
    const auto b = degrade_server_stats.find(site);
    const uint64_t a_hits = a == degrade_serial_stats.end() ? 0 : a->second.hits;
    const uint64_t a_fired = a == degrade_serial_stats.end() ? 0 : a->second.fired;
    const uint64_t b_hits = b == degrade_server_stats.end() ? 0 : b->second.hits;
    const uint64_t b_fired = b == degrade_server_stats.end() ? 0 : b->second.fired;
    std::printf("degrade site %-18s serial %llu/%llu  server %llu/%llu "
                "(fired/hits)\n", site,
                static_cast<unsigned long long>(a_fired),
                static_cast<unsigned long long>(a_hits),
                static_cast<unsigned long long>(b_fired),
                static_cast<unsigned long long>(b_hits));
    if (a_hits != b_hits || a_fired != b_fired || a_fired == 0) {
      degrade_counters_match = false;
    }
  }
  const bool degrade_absorbed = degrade_failed == 0 && degrade_identical;
  std::printf("degradation: %llu/%d failed, outcomes %s, counters %s\n",
              static_cast<unsigned long long>(degrade_failed), n_degrade,
              degrade_identical ? "bit-identical" : "DIVERGED",
              degrade_counters_match ? "matched" : "MISMATCHED");

  // Pass 4 (opt-in, the nightly chaos schedule): many rounds of a randomized
  // prob= spec across every fault site at once, against one long-lived
  // server.  Per-round seeds keep each round's firing set deterministic and
  // reproducible from (OTA_CHAOS_SEED, round); the gate is exactly-once
  // accounting every round plus a fault-free bit-identical probe at the end
  // — chaos may fail campaigns, it may never lose or double-count one, and
  // the server must come out of hours of it still serving correct answers.
  const int chaos_rounds = [] {
    const char* env = std::getenv("OTA_CHAOS_ROUNDS");
    return env && *env ? std::atoi(env) : 0;
  }();
  const double chaos_prob = [] {
    const char* env = std::getenv("OTA_CHAOS_PROB");
    return env && *env ? std::atof(env) : 0.02;
  }();
  const uint64_t chaos_seed = [] {
    const char* env = std::getenv("OTA_CHAOS_SEED");
    return env && *env ? std::strtoull(env, nullptr, 10) : uint64_t{2025};
  }();
  uint64_t chaos_served = 0, chaos_failed = 0, chaos_cancelled = 0;
  bool chaos_probe_healthy = true;
  bool chaos_accounted = true;
  constexpr int kChaosPerRound = 4;
  if (chaos_rounds > 0) {
    constexpr const char* kChaosSites[] = {
        "linalg.lu.factor",   "spice.dc.newton",      "ml.session.encode",
        "ml.session.step",    "ml.scheduler.round",   "core.predict.submit",
        "serve.worker.campaign", "spice.ac.point"};
    std::fprintf(stderr,
                 "[bench] chaos schedule: %d rounds x %d campaigns, prob "
                 "%.3g over %zu sites, seed %llu...\n",
                 chaos_rounds, kChaosPerRound, chaos_prob,
                 sizeof kChaosSites / sizeof kChaosSites[0],
                 static_cast<unsigned long long>(chaos_seed));
    serve::CampaignServer::Options chopt;
    chopt.workers = 4;
    chopt.max_retries = 2;
    serve::CampaignServer chaos_server(chopt);
    chaos_server.register_topology("5T-OTA", topo, tech(), model, lut_set);
    for (int r = 0; r < chaos_rounds; ++r) {
      std::string spec;
      size_t site_idx = 0;
      for (const char* site : kChaosSites) {
        char entry[128];
        std::snprintf(entry, sizeof entry, "%s%s:prob=%g@%llu",
                      spec.empty() ? "" : ";", site, chaos_prob,
                      static_cast<unsigned long long>(
                          chaos_seed + static_cast<uint64_t>(r) * 7919 +
                          site_idx * 131));
        spec += entry;
        ++site_idx;
      }
      fault::install_spec(spec);
      std::vector<std::shared_ptr<serve::CampaignServer::Job>> round_jobs;
      for (int i = 0; i < kChaosPerRound; ++i) {
        const size_t target_idx = static_cast<size_t>(
            (r * kChaosPerRound + i) % n_campaigns);
        round_jobs.push_back(
            chaos_server.submit({"5T-OTA", targets[target_idx], copt}));
      }
      for (auto& job : round_jobs) {
        switch (job->wait().status) {
          case serve::CampaignStatus::Served: ++chaos_served; break;
          case serve::CampaignStatus::Failed: ++chaos_failed; break;
          case serve::CampaignStatus::Cancelled: ++chaos_cancelled; break;
        }
      }
      fault::clear();
    }
    // Faults cleared: the same server must still serve bit-identically.
    auto chaos_probe = chaos_server.submit({"5T-OTA", targets[0], copt});
    const serve::CampaignResult& cres = chaos_probe->wait();
    chaos_probe_healthy = cres.status == serve::CampaignStatus::Served &&
                          same_outcome(cres.outcome, reference[0]);
    const auto cstats = chaos_server.stats();
    chaos_server.shutdown();
    const uint64_t expected =
        static_cast<uint64_t>(chaos_rounds) * kChaosPerRound + 1;
    chaos_accounted =
        cstats.submitted == expected && chaos_cancelled == 0 &&
        cstats.served + cstats.failed + cstats.cancelled == cstats.submitted;
    std::printf("chaos: %d rounds x %d -> %s; probe %s\n", chaos_rounds,
                kChaosPerRound,
                chaos_accounted ? "each accounted once" : "MISACCOUNTED",
                chaos_probe_healthy ? "healthy" : "UNHEALTHY");
  }

  // Everything above repeats run to run; what follows depends on how the
  // storm's 8 workers (and the chaos pass's 4) interleaved.
  std::printf("\ntiming-dependent:\n");
  std::printf("storm wall time %.2fs\n", storm_seconds);
  for (const char* site : kStormSites) {
    const auto it = storm_site_stats.find(site);
    std::printf("storm site %-24s hits %llu\n", site,
                static_cast<unsigned long long>(
                    it == storm_site_stats.end() ? 0 : it->second.hits));
  }
  for (const std::string& failure : storm_failures) {
    std::printf("storm %s\n", failure.c_str());
  }
  if (chaos_rounds > 0) {
    std::printf("chaos split: %llu served, %llu failed, %llu cancelled\n",
                static_cast<unsigned long long>(chaos_served),
                static_cast<unsigned long long>(chaos_failed),
                static_cast<unsigned long long>(chaos_cancelled));
  }

  JsonObject out;
  out.str("bench", "fault_storm")
      .str("scale", sc.name)
      .boolean("smoke", smoke)
      .str("storm_spec", kStormSpec)
      .num("campaigns", n_campaigns)
      .num("storm_seconds", storm_seconds, "%.3f")
      .num("served", stats.served)
      .num("failed", stats.failed)
      .num("retried", stats.retried)
      .num("recovered", stats.recovered)
      .boolean("survivors_bit_identical", survivors_identical)
      .boolean("post_storm_healthy", post_storm_healthy)
      .num("degrade_campaigns", n_degrade)
      .num("degrade_failed", degrade_failed)
      .boolean("degrade_bit_identical", degrade_identical)
      .boolean("degrade_counters_match", degrade_counters_match);
  if (chaos_rounds > 0) {
    out.num("chaos_rounds", chaos_rounds)
        .num("chaos_campaigns_per_round", kChaosPerRound)
        .num("chaos_prob", chaos_prob, "%g")
        .num("chaos_served", chaos_served)
        .num("chaos_failed", chaos_failed)
        .num("chaos_cancelled", chaos_cancelled)
        .boolean("chaos_accounted", chaos_accounted)
        .boolean("chaos_probe_healthy", chaos_probe_healthy);
  }
  write_bench_json("BENCH_fault.json", out);

  int rc = 0;
  if (!storm_spanned_layers) {
    std::fprintf(stderr, "FAIL: a storm fault did not fire exactly once\n");
    rc = 1;
  }
  if (!storm_accounted) {
    std::fprintf(stderr, "FAIL: storm accounting broke exactly-once "
                 "(submitted %llu, served %llu, failed %llu, cancelled %llu, "
                 "retried %llu)\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.served),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.cancelled),
                 static_cast<unsigned long long>(stats.retried));
    rc = 1;
  }
  if (!survivors_identical) {
    std::fprintf(stderr, "FAIL: a surviving campaign diverged from the serial "
                 "copilot\n");
    rc = 1;
  }
  if (!post_storm_healthy) {
    std::fprintf(stderr, "FAIL: the server did not serve bit-identically "
                 "after the storm cleared\n");
    rc = 1;
  }
  if (!degrade_absorbed) {
    std::fprintf(stderr, "FAIL: the numerics recovery ladders let a degraded "
                 "campaign fail or diverge\n");
    rc = 1;
  }
  if (!degrade_counters_match) {
    std::fprintf(stderr, "FAIL: per-site fault counters diverged between the "
                 "serial and server degradation passes\n");
    rc = 1;
  }
  if (chaos_rounds > 0 && !chaos_accounted) {
    std::fprintf(stderr, "FAIL: chaos accounting broke exactly-once\n");
    rc = 1;
  }
  if (chaos_rounds > 0 && !chaos_probe_healthy) {
    std::fprintf(stderr, "FAIL: the server did not serve bit-identically "
                 "after the chaos schedule\n");
    rc = 1;
  }
  return rc;
}
