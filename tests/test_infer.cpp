// InferenceEngine tests: the bit-identity contract between the autograd-free
// KV-cache engine and the Var-based reference path, batch semantics, the
// positional-table guard rails, and the versioned model-file format.
#include "ml/infer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/sizing_model.hpp"
#include "ml/adam.hpp"

namespace ota::ml {
namespace {

using nlp::TokenId;
using nlp::Vocabulary;

TransformerConfig tiny_config(uint64_t seed, int64_t max_len = 64) {
  TransformerConfig c;
  c.vocab_size = 10;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 32;
  c.max_len = max_len;
  c.dropout = 0.0;
  c.seed = seed;
  return c;
}

/// Trains a tiny copy-task model (enough structure for nontrivial decoding).
/// Results are cached per (seed, epochs) so suites sharing a model train it
/// once.
const Transformer& trained_model(uint64_t seed, int epochs) {
  static std::map<std::pair<uint64_t, int>, std::unique_ptr<Transformer>> cache;
  auto& slot = cache[{seed, epochs}];
  if (slot) return *slot;
  auto model = std::make_unique<Transformer>(tiny_config(seed));
  AdamOptions aopt;
  aopt.lr = 3e-3;
  Adam adam(model->parameters(), aopt);
  Rng rng(seed);
  const std::vector<std::vector<TokenId>> seqs{
      {4, 5, 6, 7}, {5, 4, 7, 6}, {6, 7, 4, 5}, {7, 6, 5, 4}};
  const std::vector<double> weights(5, 1.0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const auto& s : seqs) {
      const Var l = model->loss(s, s, weights, rng);
      backward(l);
      adam.step();
    }
  }
  slot = std::move(model);
  return *slot;
}

const std::vector<std::vector<TokenId>>& probe_sources() {
  // Trained patterns, permutations the model never saw, and degenerate
  // lengths: greedy decoding must agree on all of them.
  static const std::vector<std::vector<TokenId>> srcs{
      {4, 5, 6, 7}, {5, 4, 7, 6}, {6, 7, 4, 5}, {7, 6, 5, 4},
      {4, 4, 4, 4}, {7, 5}, {6}, {5, 6, 7, 4, 5, 6, 7, 4}};
  return srcs;
}

TEST(InferenceEngine, GreedyMatchesReferenceOnTrainedModels) {
  // The property the whole refactor rests on: for every trained model the
  // engine sees, greedy output is token-for-token identical to the
  // Var-based reference.  Three differently-seeded/-converged models plus
  // an untrained one exercise sharp and diffuse logit landscapes.
  struct Case {
    uint64_t seed;
    int epochs;
  };
  for (const Case& c : {Case{5, 60}, Case{9, 110}, Case{13, 25}, Case{21, 0}}) {
    const Transformer& model = trained_model(c.seed, c.epochs);
    const InferenceEngine engine(model);
    for (const auto& src : probe_sources()) {
      EXPECT_EQ(engine.greedy_decode(src, 16), model.greedy_decode(src, 16))
          << "seed " << c.seed << " epochs " << c.epochs;
    }
  }
}

TEST(InferenceEngine, IncrementalLogitsMatchFullRecompute) {
  // The KV cache makes each step one-row work; the logits it produces must
  // agree with re-running the full decoder over the whole prefix.
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  Rng rng(0);
  for (const auto& src : probe_sources()) {
    const Var memory = model.encode(src, /*training=*/false, rng);
    InferenceEngine::Session session(engine, src);
    std::vector<TokenId> prefix{Vocabulary::kBos};
    for (int step = 0; step < 8; ++step) {
      const Tensor& incremental = session.step(prefix.back());
      const Var full = model.decode(memory, prefix, /*training=*/false, rng);
      const int64_t last = full->value.rows() - 1;
      ASSERT_EQ(incremental.cols(), full->value.cols());
      for (int64_t c = 0; c < incremental.cols(); ++c) {
        ASSERT_NEAR(incremental(0, c), full->value(last, c), 1e-9)
            << "step " << step << " column " << c;
      }
      // Continue along the greedy path.
      prefix.push_back(argmax_token(incremental));
    }
  }
}

TEST(InferenceEngine, BatchOfOneEqualsSingle) {
  const Transformer& model = trained_model(9, 110);
  const InferenceEngine engine(model);
  for (const auto& src : probe_sources()) {
    const auto batch = engine.greedy_decode_batch({src}, 16);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], engine.greedy_decode(src, 16));
  }
}

TEST(InferenceEngine, BatchBitIdenticalAcrossThreadCounts) {
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  const auto& srcs = probe_sources();
  const auto serial = engine.greedy_decode_batch(srcs, 16, /*threads=*/1);
  const auto wide = engine.greedy_decode_batch(srcs, 16, /*threads=*/8);
  ASSERT_EQ(serial.size(), srcs.size());
  EXPECT_EQ(serial, wide);
}

TEST(InferenceEngine, BatchRejectsNonpositiveTokenBudget) {
  // A zero/negative budget on a non-empty batch would silently decode
  // nothing; the engine refuses it with a readable error instead.  An empty
  // batch is a no-op whatever the budget.
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  EXPECT_THROW((void)engine.greedy_decode_batch({{4, 5}}, 0), InvalidArgument);
  EXPECT_THROW((void)engine.greedy_decode_batch({{4, 5}}, -7, /*threads=*/8),
               InvalidArgument);
  EXPECT_TRUE(engine.greedy_decode_batch({}, 0).empty());
}

TEST(InferenceEngine, EncoderInputLongerThanTableThrows) {
  const Transformer model(tiny_config(7, /*max_len=*/8));
  const InferenceEngine engine(model);
  const std::vector<TokenId> too_long(9, 4);
  EXPECT_THROW((void)model.greedy_decode(too_long, 4), InvalidArgument);
  EXPECT_THROW((void)engine.greedy_decode(too_long, 4), InvalidArgument);
}

TEST(InferenceEngine, DecodeBudgetClampedToTable) {
  // A generous token budget must not index past the positional table: both
  // paths clamp to max_len and stay in agreement.
  const Transformer model(tiny_config(7, /*max_len=*/8));
  const InferenceEngine engine(model);
  const std::vector<TokenId> src{4, 5, 6};
  const auto reference = model.greedy_decode(src, 1000);
  const auto fast = engine.greedy_decode(src, 1000);
  EXPECT_LE(reference.size(), 8u);
  EXPECT_EQ(fast, reference);
}

TEST(InferenceEngine, SessionRefusesStepsPastTable) {
  const Transformer model(tiny_config(7, /*max_len=*/4));
  const InferenceEngine engine(model);
  InferenceEngine::Session session(engine, {4, 5});
  TokenId tok = Vocabulary::kBos;
  for (int i = 0; i < 4; ++i) (void)session.step(tok);
  EXPECT_THROW((void)session.step(tok), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Float32 tier

TEST(InferenceEngine, F32GreedyAgreesWithDoubleOnTrainedModels) {
  // The agreement gate the fast tier ships under: on trained models (sharp
  // logit landscapes) the float32 tier's token streams must be identical to
  // the double reference.  The untrained seed-21 model is deliberately
  // absent — diffuse, near-tied logits are exactly where a narrowed tier may
  // legitimately pick a different argmax, and nothing serves untrained
  // models.
  struct Case {
    uint64_t seed;
    int epochs;
  };
  for (const Case& c : {Case{5, 60}, Case{9, 110}, Case{13, 25}}) {
    const Transformer& model = trained_model(c.seed, c.epochs);
    const InferenceEngine engine(model);
    for (const auto& src : probe_sources()) {
      EXPECT_EQ(engine.greedy_decode(src, 16, Precision::kFloat32),
                engine.greedy_decode(src, 16, Precision::kDouble))
          << "seed " << c.seed << " epochs " << c.epochs;
    }
  }
}

TEST(InferenceEngine, F32LogitsTrackDoubleWithinFloatTolerance) {
  // Kernel-level accuracy bound: along the double tier's greedy path, the
  // f32 session's widened logits must track the double logits to float
  // precision (relative, compounding across 2 layers of norms and attention).
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  for (const auto& src : probe_sources()) {
    InferenceEngine::Session ref(engine, src, Precision::kDouble);
    InferenceEngine::Session fast(engine, src, Precision::kFloat32);
    EXPECT_EQ(fast.precision(), Precision::kFloat32);
    TokenId prev = Vocabulary::kBos;
    for (int step = 0; step < 8; ++step) {
      const Tensor& want = ref.step(prev);
      const Tensor& got = fast.step(prev);
      ASSERT_EQ(got.cols(), want.cols());
      for (int64_t c = 0; c < want.cols(); ++c) {
        const double scale = std::max(1.0, std::abs(want(0, c)));
        ASSERT_NEAR(got(0, c), want(0, c), 1e-3 * scale)
            << "step " << step << " column " << c;
      }
      prev = argmax_token(want);
    }
  }
}

TEST(InferenceEngine, F32EncodeTracksDoubleEncode) {
  const Transformer& model = trained_model(9, 110);
  const InferenceEngine engine(model);
  for (const auto& src : probe_sources()) {
    const Tensor want = engine.encode<Tensor>(src);
    const TensorF got = engine.encode<TensorF>(src);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (int64_t i = 0; i < want.size(); ++i) {
      const double scale = std::max(1.0, std::abs(want.at(i)));
      ASSERT_NEAR(static_cast<double>(got.at(i)), want.at(i), 1e-3 * scale)
          << "flat index " << i;
    }
  }
}

TEST(InferenceEngine, F32BatchBitIdenticalAcrossThreadCounts) {
  // Same determinism property the double tier holds: the f32 batch result
  // must not depend on pool width (sessions are private, kernels serial).
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  const auto& srcs = probe_sources();
  const auto serial =
      engine.greedy_decode_batch(srcs, 16, /*threads=*/1, Precision::kFloat32);
  const auto wide =
      engine.greedy_decode_batch(srcs, 16, /*threads=*/8, Precision::kFloat32);
  ASSERT_EQ(serial.size(), srcs.size());
  EXPECT_EQ(serial, wide);
}

/// FNV-1a-64 over the raw bytes of a logits row, chained through `h`.
uint64_t fnv1a(uint64_t h, const Tensor& row) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(row.data().data());
  for (size_t i = 0; i < row.data().size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

TEST(InferenceEngine, SessionLogitsMatchPinnedReference) {
  // Pins both tiers bit for bit: each tier steps 12 tokens along its own
  // argmax path from every probe source, hashing every (widened) logits row.
  // The constants were captured from a Release build before the two tiers
  // shared one step body; any change to a kernel's accumulation order, the
  // f32 narrowing or the widening moves them.  The double constant was
  // re-captured when Q/K/V became one fused parameter per site: training
  // then sums the global clip norm over one tensor instead of one per head,
  // which moves the trained weights at ULP level (with clipping off, the
  // logits of both tiers are unchanged).
  const InferenceEngine engine(trained_model(5, 60));
  const auto hash_tier = [&](Precision precision) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto& src : probe_sources()) {
      InferenceEngine::Session session(engine, src, precision);
      TokenId prev = Vocabulary::kBos;
      for (int step = 0; step < 12; ++step) {
        const Tensor& logits = session.step(prev);
        h = fnv1a(h, logits);
        prev = argmax_token(logits);
      }
    }
    return h;
  };
  EXPECT_EQ(hash_tier(Precision::kDouble), 0x0570424aff40a8c0ull);
  EXPECT_EQ(hash_tier(Precision::kFloat32), 0x2edc21f899f1c6c2ull);
}

TEST(InferenceEngine, RaggedShapesMatchReferenceInBothTiers) {
  // The tiny config's widths (vocab 10, d_model 16, d_ff 32) never run a
  // full block of row-kernel outputs followed by a partial one.  d_model 24
  // over 3 heads, d_ff 40 and vocab 37 do, in every projection.  The double
  // tier must reproduce the reference decoder's logits bit for bit at every
  // step, and both tiers must emit the reference's greedy tokens; the f32
  // logits are pinned by a hash captured before the row kernel was tiled.
  TransformerConfig cfg = tiny_config(31);
  cfg.vocab_size = 37;
  cfg.d_model = 24;
  cfg.n_heads = 3;
  cfg.d_ff = 40;
  Transformer model(cfg);
  AdamOptions aopt;
  aopt.lr = 3e-3;
  Adam adam(model.parameters(), aopt);
  Rng rng(31);
  const std::vector<std::vector<TokenId>> seqs{
      {4, 17, 29, 36}, {36, 29, 17, 4}, {10, 22, 5, 33}, {33, 5, 22, 10}};
  const std::vector<double> weights(5, 1.0);
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (const auto& s : seqs) {
      const Var l = model.loss(s, s, weights, rng);
      backward(l);
      adam.step();
    }
  }
  const InferenceEngine engine(model);

  for (const auto& src : seqs) {
    const Var memory = model.encode(src, /*training=*/false, rng);
    InferenceEngine::Session session(engine, src);
    std::vector<TokenId> prefix{Vocabulary::kBos};
    for (int step = 0; step < 6; ++step) {
      const Tensor& got = session.step(prefix.back());
      const Var full = model.decode(memory, prefix, /*training=*/false, rng);
      const double* want = &full->value(full->value.rows() - 1, 0);
      ASSERT_EQ(got.cols(), cfg.vocab_size);
      ASSERT_EQ(std::memcmp(got.data().data(), want, sizeof(double) * 37), 0)
          << "step " << step;
      prefix.push_back(argmax_token(got));
    }
    for (Precision p : {Precision::kDouble, Precision::kFloat32}) {
      EXPECT_EQ(engine.greedy_decode(src, 8, p), model.greedy_decode(src, 8));
    }
  }

  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& src : seqs) {
    InferenceEngine::Session session(engine, src, Precision::kFloat32);
    TokenId prev = Vocabulary::kBos;
    for (int step = 0; step < 6; ++step) {
      const Tensor& logits = session.step(prev);
      h = fnv1a(h, logits);
      prev = argmax_token(logits);
    }
  }
  EXPECT_EQ(h, 0xfaabf9b9b53fc630ull);
}

TEST(InferenceEngine, ForgedPrecisionIsRefused) {
  // An out-of-range Precision (static_cast from a config knob) must be
  // refused at the door — session construction and the batch entry point —
  // not silently treated as one of the tiers.
  const Transformer& model = trained_model(5, 60);
  const InferenceEngine engine(model);
  const auto forged = static_cast<Precision>(7);
  EXPECT_THROW(InferenceEngine::Session(engine, {4, 5}, forged),
               InvalidArgument);
  EXPECT_THROW((void)engine.greedy_decode_batch({{4, 5}}, 8, 1, forged),
               InvalidArgument);
}

}  // namespace
}  // namespace ota::ml

namespace ota::core {
namespace {

/// A tiny synthetic text-to-text corpus (no SPICE dataset needed): the model
/// only has to be deterministic, not accurate.  Trained once, shared by
/// every test in the suite.
const SizingModel& trained_sizing_model() {
  static const SizingModel shared = [] {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 12; ++i) {
      pairs.emplace_back(
          "gain=" + std::to_string(40 + i) + " bw=" + std::to_string(10 + i),
          "gmM1=" + std::to_string(1 + i) + "e-3 gdsM1=" +
              std::to_string(2 + i) + "e-5");
    }
    SizingModel model;
    TrainOptions opt;
    opt.epochs = 2;
    opt.d_model = 16;
    opt.n_heads = 2;
    opt.n_layers = 1;
    opt.d_ff = 32;
    opt.bpe_merges = 32;
    opt.max_len = 256;
    model.train(pairs, opt);
    return model;
  }();
  return shared;
}

TEST(SizingModelInfer, PredictBatchBitIdenticalAcrossThreadCounts) {
  const SizingModel& model = trained_sizing_model();
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    texts.push_back("gain=" + std::to_string(41 + i) + " bw=" + std::to_string(12 + i));
  }
  std::vector<std::string> serial;
  for (const auto& t : texts) serial.push_back(model.predict(t, 64, {}));
  EXPECT_EQ(model.predict_batch(texts, 64, /*threads=*/1), serial);
  EXPECT_EQ(model.predict_batch(texts, 64, /*threads=*/8), serial);
}

TEST(SizingModelInfer, PredictBatchEmptyInputReturnsEmpty) {
  // The empty batch needs no engine at all — it must work even on an
  // untrained model (degenerate sweeps, drained campaign queues).
  const SizingModel untrained;
  EXPECT_TRUE(untrained.predict_batch({}, 64).empty());
  EXPECT_TRUE(trained_sizing_model().predict_batch({}, 64, 8).empty());
}

TEST(SizingModelInfer, EnginePredictionMatchesReferenceTransformer) {
  const SizingModel& model = trained_sizing_model();
  const std::string text = "gain=45 bw=17";
  const auto src = model.tokenizer().encode(text);
  EXPECT_EQ(model.engine().greedy_decode(src, 64),
            model.transformer().greedy_decode(src, 64));
}

/// Reads a whole file as bytes.
std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SizingModelInfer, SaveLoadRoundTripsV2Format) {
  // Named when the format was version 2; it round-trips the current one.
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_v2").string();
  model.save(prefix);
  EXPECT_EQ(slurp(prefix + ".model").substr(0, 8), "otasmdl3");
  const std::string expected = model.predict("gain=43 bw=14", 64, {});

  SizingModel loaded;
  ASSERT_TRUE(loaded.load(prefix));
  EXPECT_EQ(loaded.predict("gain=43 bw=14", 64, {}), expected);
  EXPECT_EQ(loaded.transformer().config().d_model, 16);
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

TEST(SizingModelInfer, LoadRefusesLegacyAndV2Files) {
  // Files before version 3 stored per-head attention projections (and, before
  // the version tag, a raw TransformerConfig dump); they must be re-trained,
  // so load refuses them with a clear error instead of guessing a layout.
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_legacy").string();
  model.save(prefix);
  const std::string v3 = slurp(prefix + ".model");
  ASSERT_EQ(v3.substr(0, 8), "otasmdl3");

  std::string v2 = v3;
  v2[7] = '2';
  std::ostringstream untagged;
  const auto& cfg = model.transformer().config();
  untagged.write(reinterpret_cast<const char*>(&cfg), sizeof cfg);
  model.transformer().save(untagged);
  for (const std::string& bytes : {v2, untagged.str()}) {
    write_file(prefix + ".model", bytes);
    SizingModel loaded;
    EXPECT_THROW((void)loaded.load(prefix), InvalidArgument);
    EXPECT_FALSE(loaded.trained());
  }
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

TEST(SizingModelInfer, LoadRejectsCorruptV3Header) {
  // A well-tagged header that does not describe the file must fail with a
  // clear error before the Transformer is built: no division by zero heads,
  // and no allocation a forged header asks for.  The huge header (72 bytes,
  // vocab 2^24 x d_model 2^16) would otherwise start with a 128 MB
  // positional table and then fail an 8 TB embedding allocation.
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_corrupt").string();
  model.save(prefix);
  const std::string saved = slurp(prefix + ".model");
  const std::string bpe = slurp(prefix + ".bpe");
  // The saved file with config field `index` (vocab_size, d_model, n_heads,
  // n_layers, d_ff, max_len) replaced, so only that field is wrong.
  const auto with_field = [](std::string bytes, int index, int64_t value) {
    std::memcpy(&bytes[static_cast<size_t>(8 + 8 * index)], &value, sizeof value);
    return bytes;
  };
  const std::string huge = with_field(
      with_field(saved, 0, int64_t{1} << 24), 1, int64_t{1} << 16).substr(0, 72);
  const std::vector<std::pair<std::string, std::string>> cases{
      {"zero heads", with_field(saved, 2, 0)},
      {"huge dimensions, no weights", huge},
      {"max_len above kMaxPositions", with_field(saved, 5, ml::kMaxPositions + 1)},
      {"one trailing byte", saved + '\0'},
      {"truncated weights", saved.substr(0, saved.size() - 8)},
  };
  for (const auto& [name, bytes] : cases) {
    write_file(prefix + ".model", bytes);
    SizingModel loaded;
    EXPECT_THROW((void)loaded.load(prefix), InvalidArgument) << name;
  }

  // An intact model file paired with a tokenizer of another vocabulary size.
  write_file(prefix + ".model", saved);
  const auto other = nlp::BpeTokenizer::train({"gain bw"}, {.num_merges = 1});
  ASSERT_NE(other.vocab().size(), model.tokenizer().vocab().size());
  write_file(prefix + ".bpe", other.serialize());
  SizingModel loaded;
  EXPECT_THROW((void)loaded.load(prefix), InvalidArgument);
  write_file(prefix + ".bpe", bpe);
  EXPECT_TRUE(loaded.load(prefix));  // the pair as saved still loads
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

TEST(SizingModelInfer, EveryAcceptedDropoutRateReloads) {
  // train() and load() accept the same dropout range: a rate train() takes
  // must never produce a file load() calls corrupt, and a rate load() would
  // refuse (negative, >= 1, non-finite) is refused before training.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 4; ++i) {
    pairs.emplace_back("gain=" + std::to_string(40 + i),
                       "gmM1=" + std::to_string(1 + i) + "e-3");
  }
  TrainOptions opt;
  opt.epochs = 1;
  opt.d_model = 8;
  opt.n_heads = 2;
  opt.n_layers = 1;
  opt.d_ff = 16;
  opt.bpe_merges = 8;
  opt.max_len = 64;
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_dropout").string();
  for (double rate : {0.0, -0.0, 0.05, 0.5, std::nextafter(1.0, 0.0)}) {
    SizingModel model;
    opt.dropout = rate;
    model.train(pairs, opt);
    model.save(prefix);
    SizingModel loaded;
    EXPECT_TRUE(loaded.load(prefix)) << rate;
    EXPECT_EQ(loaded.predict("gain=41", 16, {}),
              model.predict("gain=41", 16, {}))
        << rate;
  }
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
  for (double rate : {-0.1, 1.0, std::nan(""), HUGE_VAL}) {
    SizingModel model;
    opt.dropout = rate;
    EXPECT_THROW(model.train(pairs, opt), InvalidArgument) << rate;
    EXPECT_THROW((void)model.predict("gain=41", 16, {}), InvalidArgument)
        << rate;
  }
}

TEST(SizingModelInfer, LoadRejectsUnrecognizedModelFile) {
  const SizingModel& model = trained_sizing_model();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ota_infer_bad").string();
  {
    std::ofstream bpe(prefix + ".bpe");
    bpe << model.tokenizer().serialize();
  }
  {
    std::ofstream mdl(prefix + ".model", std::ios::binary);
    mdl << "this is not a model file of any known vintage";
  }
  SizingModel loaded;
  EXPECT_THROW((void)loaded.load(prefix), InvalidArgument);
  std::remove((prefix + ".bpe").c_str());
  std::remove((prefix + ".model").c_str());
}

}  // namespace
}  // namespace ota::core
