#include "ml/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

namespace ota::ml {

using nlp::TokenId;
using nlp::Vocabulary;

Transformer::Transformer(const TransformerConfig& config) : cfg_(config) {
  if (cfg_.vocab_size <= 0) {
    throw InvalidArgument("Transformer: vocab_size must be set");
  }
  // The same ranges the model-file loader accepts, so a trained model
  // reloads.  max_len is checked before the positional table is built.
  if (cfg_.max_len <= 0 || cfg_.max_len > kMaxPositions) {
    throw InvalidArgument(std::string("Transformer: max_len must be in [1, ") +
                          std::to_string(kMaxPositions) + "]");
  }
  if (!(cfg_.dropout >= 0.0 && cfg_.dropout < 1.0)) {
    throw InvalidArgument("Transformer: dropout must be finite and in [0, 1)");
  }
  pos_ = PositionalEncoding(cfg_.max_len, cfg_.d_model);
  Rng rng(cfg_.seed);
  src_embed_ = reg_.track(
      parameter(Tensor::xavier(cfg_.vocab_size, cfg_.d_model, rng)), "src_embed");
  tgt_embed_ = reg_.track(
      parameter(Tensor::xavier(cfg_.vocab_size, cfg_.d_model, rng)), "tgt_embed");
  for (int64_t l = 0; l < cfg_.n_layers; ++l) {
    encoder_.emplace_back(cfg_.d_model, cfg_.n_heads, cfg_.d_ff, rng, reg_,
                          "enc" + std::to_string(l));
  }
  for (int64_t l = 0; l < cfg_.n_layers; ++l) {
    decoder_.emplace_back(cfg_.d_model, cfg_.n_heads, cfg_.d_ff, rng, reg_,
                          "dec" + std::to_string(l));
  }
  out_w_ = reg_.track(
      parameter(Tensor::xavier(cfg_.d_model, cfg_.vocab_size, rng)), "out.w");
  out_b_ = reg_.track(parameter(Tensor(1, cfg_.vocab_size)), "out.b");
}

Var Transformer::encode(const std::vector<TokenId>& src, bool training,
                        Rng& rng) const {
  if (src.empty()) throw InvalidArgument("Transformer::encode: empty input");
  Var x = scale(embedding(src_embed_, src), std::sqrt(static_cast<double>(cfg_.d_model)));
  x = pos_.forward(x);
  x = dropout(x, cfg_.dropout, training, rng);
  for (const auto& layer : encoder_) {
    x = layer.forward(x, cfg_.dropout, training, rng);
  }
  return x;
}

Var Transformer::decode(const Var& memory, const std::vector<TokenId>& tgt_in,
                        bool training, Rng& rng) const {
  if (tgt_in.empty()) throw InvalidArgument("Transformer::decode: empty input");
  Var x = scale(embedding(tgt_embed_, tgt_in), std::sqrt(static_cast<double>(cfg_.d_model)));
  x = pos_.forward(x);
  x = dropout(x, cfg_.dropout, training, rng);
  for (const auto& layer : decoder_) {
    x = layer.forward(x, memory, cfg_.dropout, training, rng);
  }
  return add_bias(matmul(x, out_w_), out_b_);
}

Var Transformer::loss(const std::vector<TokenId>& src,
                      const std::vector<TokenId>& tgt,
                      const std::vector<double>& target_weights, Rng& rng,
                      bool training) const {
  if (tgt.empty()) throw InvalidArgument("Transformer::loss: empty target");
  if (target_weights.size() != tgt.size() + 1) {
    throw InvalidArgument(
        "Transformer::loss: need one weight per target token plus <eos>");
  }
  // Teacher forcing: in = <bos> t1..tn, out = t1..tn <eos>.
  std::vector<TokenId> in{Vocabulary::kBos};
  in.insert(in.end(), tgt.begin(), tgt.end());
  std::vector<TokenId> out = tgt;
  out.push_back(Vocabulary::kEos);

  const Var memory = encode(src, training, rng);
  const Var logits = decode(memory, in, training, rng);
  return cross_entropy(logits, out, target_weights);
}

std::vector<TokenId> Transformer::greedy_decode(const std::vector<TokenId>& src,
                                                int64_t max_len) const {
  const Var memory = encode(src, /*training=*/false, inference_rng_);
  // The decoder input at step s holds s+1 tokens; clamping the step budget to
  // the positional-table size keeps every lookup in range.
  const int64_t steps = std::min(max_len, cfg_.max_len);
  std::vector<TokenId> out{Vocabulary::kBos};
  for (int64_t step = 0; step < steps; ++step) {
    const Var logits = decode(memory, out, /*training=*/false, inference_rng_);
    const TokenId best = argmax_token(logits->value, logits->value.rows() - 1);
    if (best == Vocabulary::kEos) break;
    out.push_back(best);
  }
  return {out.begin() + 1, out.end()};  // strip <bos>
}

TokenId argmax_token(const Tensor& logits, int64_t row) {
  TokenId best = 0;
  double best_score = -1e300;
  for (int64_t c = 0; c < logits.cols(); ++c) {
    if (logits(row, c) > best_score) {
      best_score = logits(row, c);
      best = static_cast<TokenId>(c);
    }
  }
  return best;
}

void Transformer::copy_parameters_from(const Transformer& other) {
  const auto& src = other.reg_.parameters();
  const auto& dst = reg_.parameters();
  if (src.size() != dst.size()) {
    throw InvalidArgument("Transformer::copy_parameters_from: parameter count mismatch");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (!dst[i]->value.same_shape(src[i]->value)) {
      throw InvalidArgument("Transformer::copy_parameters_from: shape mismatch");
    }
    dst[i]->value = src[i]->value;
  }
}

void Transformer::save(std::ostream& os) const {
  const char magic[8] = {'o', 't', 'a', 't', 'f', 'm', 'r', '1'};
  os.write(magic, sizeof magic);
  const int64_t n = static_cast<int64_t>(reg_.parameters().size());
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  for (const auto& p : reg_.parameters()) {
    const int64_t rows = p->value.rows(), cols = p->value.cols();
    os.write(reinterpret_cast<const char*>(&rows), sizeof rows);
    os.write(reinterpret_cast<const char*>(&cols), sizeof cols);
    os.write(reinterpret_cast<const char*>(p->value.data().data()),
             static_cast<std::streamsize>(sizeof(double) * p->value.data().size()));
  }
}

void Transformer::load(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof magic);
  if (!is || std::string(magic, 8) != "otatfmr1") {
    throw InvalidArgument("Transformer::load: bad file magic");
  }
  int64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof n);
  if (n != static_cast<int64_t>(reg_.parameters().size())) {
    throw InvalidArgument("Transformer::load: parameter count mismatch");
  }
  for (const auto& p : reg_.parameters()) {
    int64_t rows = 0, cols = 0;
    is.read(reinterpret_cast<char*>(&rows), sizeof rows);
    is.read(reinterpret_cast<char*>(&cols), sizeof cols);
    if (rows != p->value.rows() || cols != p->value.cols()) {
      throw InvalidArgument("Transformer::load: shape mismatch");
    }
    is.read(reinterpret_cast<char*>(p->value.data().data()),
            static_cast<std::streamsize>(sizeof(double) * p->value.data().size()));
    if (!is) throw InvalidArgument("Transformer::load: truncated file");
  }
}

int64_t Transformer::saved_bytes(const TransformerConfig& c) {
  // Mirrors the constructor's registry: an encoder layer holds 13 tensors
  // (attention 5, FFN 4, two norms 4), a decoder layer 20 (two attentions,
  // FFN, three norms), plus the two embeddings and the output projection.
  // Each tensor is written as rows and cols (two int64) then its doubles,
  // after the 8-byte magic and the int64 tensor count.
  const int64_t d = c.d_model;
  const int64_t attention = 4 * d * d + d;
  const int64_t ffn = 2 * d * c.d_ff + c.d_ff + d;
  const int64_t norm = 2 * d;
  const int64_t tensors = 4 + c.n_layers * (13 + 20);
  const int64_t scalars =
      3 * c.vocab_size * d + c.vocab_size +
      c.n_layers * ((attention + ffn + 2 * norm) + (2 * attention + ffn + 3 * norm));
  return 16 + 16 * tensors + 8 * scalars;
}

int64_t Transformer::parameter_count() const {
  int64_t total = 0;
  for (const auto& p : reg_.parameters()) total += p->value.size();
  return total;
}

}  // namespace ota::ml
