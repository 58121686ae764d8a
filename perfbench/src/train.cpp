// train: transformer training (paper Section III-C).
//
// Calls SizingModel::train on a fixed 5T-OTA corpus — the 80% split of a
// 250-design dataset — with the OTA_SCALE=tiny model shape (d_model 32,
// d_ff 64, 6 epochs, default training seed) on kThreads threads.  ml (GEMM,
// autograd, Adam) and nlp (BPE fit) do all the timed work and spice does
// none, so this workload moves with training changes and not with AC/DC
// analysis changes.  The workload seed picks the corpus.
#include <cstdio>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nlp/bpe.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {
constexpr int kCorpusDesigns = 250;
constexpr int kSetupRepeats = 3;
constexpr int kWarmupExamples = 16;
}  // namespace

ota::core::TrainOptions tiny_train_options() {
  ota::core::TrainOptions opt;
  opt.epochs = 6;
  opt.d_model = 32;
  opt.n_heads = 4;
  opt.n_layers = 2;
  opt.d_ff = 64;
  opt.lr = 2e-3;
  opt.threads = kThreads;
  return opt;
}

Corpus make_corpus(uint64_t sampling_seed) {
  Corpus c;
  auto topology = ota::circuit::make_topology("5T-OTA", tech());
  ota::core::DataGenOptions gopt;
  gopt.target_designs = kCorpusDesigns;
  gopt.max_attempts = kCorpusDesigns * 200;
  gopt.seed = sampling_seed;
  gopt.threads = kThreads;
  const auto ds = ota::core::generate_dataset(
      topology, tech(), ota::core::SpecRange::for_topology("5T-OTA"), gopt);
  auto split = ota::core::train_val_split(ds.designs, 0.2, 42);
  c.train = std::move(split.first);
  c.val = std::move(split.second);
  c.builder = std::make_unique<ota::core::SequenceBuilder>(topology, tech());
  for (const auto& d : c.train) {
    c.pairs.emplace_back(c.builder->encoder_text(d.specs),
                         c.builder->decoder_text(d));
  }
  c.topology = std::make_unique<ota::circuit::Topology>(std::move(topology));
  return c;
}

double replay_bpe(const Corpus& corpus, Spans& spans, Result& r) {
  std::vector<std::string> text;
  for (const auto& [e, d] : corpus.pairs) {
    text.push_back(e);
    text.push_back(d);
  }
  spans.time("nlp.bpe_train", [&] {
    ota::nlp::BpeTokenizer::train(
        text, {.num_merges = tiny_train_options().bpe_merges});
  });
  const double bpe_s = spans.per_call("nlp.bpe_train", 1.0);
  r.values["nlp.bpe_train_s"] = bpe_s;
  return bpe_s;
}

Result run_train(const Args& args) {
  Result r;
  const auto opt = tiny_train_options();
  Corpus corpus;
  r.values["setup_s"] = median_setup_cpu_seconds(kSetupRepeats, [&] {
    corpus = make_corpus(ota::stream_seed(args.seed, 0));
    // Warm-up: one short training call pays first-use costs (pool start-up,
    // first-touch allocation) before anything is timed.
    auto warm_opt = opt;
    warm_opt.epochs = 1;
    const std::vector<std::pair<std::string, std::string>> warm(
        corpus.pairs.begin(),
        corpus.pairs.begin() +
            std::min<long>(kWarmupExamples, static_cast<long>(corpus.pairs.size())));
    ota::core::SizingModel().train(warm, warm_opt);
  });

  // One result = one corpus example trained for one epoch.
  const double examples =
      static_cast<double>(corpus.pairs.size()) * opt.epochs;
  std::vector<ota::core::TrainHistory> histories;
  std::vector<double> cpu_ms_per_example;
  auto train_once = [&] {
    ++r.attempted;
    const double c0 = process_cpu_seconds();
    try {
      histories.push_back(ota::core::SizingModel().train(corpus.pairs, opt));
    } catch (const ota::Error& e) {
      ++r.failed;
      std::fprintf(stderr, "train: SizingModel::train failed: %s\n", e.what());
    }
    cpu_ms_per_example.push_back((process_cpu_seconds() - c0) * 1e3 / examples);
  };
  const std::vector<double> calls = timed_loop(args.seconds, 1, train_once);
  const double cpu_ms = median(cpu_ms_per_example);
  const double examples_per_s = examples / median(calls);
  r.values["cpu_ms_per_result"] = cpu_ms;
  r.values["core.train_examples_per_s"] = examples_per_s;

  r.gate.check(histories.size() == calls.size() && !histories.empty() &&
                   !histories.front().val_loss.empty(),
               "every timed SizingModel::train call must finish");
  if (!r.gate.passed()) return r;
  const auto& first = histories.front();
  for (size_t i = 1; i < histories.size(); ++i) {
    r.gate.repeats(first.val_loss, histories[i].val_loss, "train val_loss trajectory");
    r.gate.repeats(first.train_loss, histories[i].train_loss,
                   "train train_loss trajectory");
  }
  // The validation split inside train() is 10% of the corpus (20 examples),
  // so its final loss swings with the corpus seed; the final-epoch training
  // loss over the other 180 examples is the steadier deterministic figure.
  r.values["cost_per_result"] = first.train_loss.back();

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%.6g examples/s (wall; %zu examples x %d epochs, %zu calls)",
                examples_per_s, corpus.pairs.size(), opt.epochs, calls.size());
  r.summary.emplace_back("train_examples_per_s", buf);
  std::string traj;
  for (double v : first.val_loss) {
    std::snprintf(buf, sizeof buf, "%s%.17g", traj.empty() ? "" : " ", v);
    traj += buf;
  }
  r.summary.emplace_back("train_val_loss", traj);
  r.deterministic.emplace_back("train_val_loss", traj);
  std::snprintf(buf, sizeof buf, "%.17g", first.train_loss.back());
  r.deterministic.emplace_back("train_loss_final", buf);

  if (args.trace) {
    const size_t untraced = cpu_ms_per_example.size();
    const TraceWindow w =
        traced([&] { timed_loop(args.seconds, 1, train_once); });
    r.values["trace.overhead_share"] =
        median({cpu_ms_per_example.begin() + static_cast<long>(untraced),
                cpu_ms_per_example.end()}) /
            cpu_ms -
        1.0;
    library_layer_metrics(w, r);

    Spans spans;
    const double bpe_s = replay_bpe(corpus, spans, r);
    r.values["ml.train_epoch_s"] = (median(calls) - bpe_s) / opt.epochs;
    r.layer_table = layer_table(w, spans, kThreads);
  }
  return r;
}

}  // namespace perfbench
