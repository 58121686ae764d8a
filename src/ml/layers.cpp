#include "ml/layers.hpp"

#include <cmath>

namespace ota::ml {

Var ParameterRegistry::track(Var p, const std::string& name) {
  params_.push_back(p);
  names_.push_back(name);
  return p;
}

Linear::Linear(int64_t in, int64_t out, Rng& rng, ParameterRegistry& reg,
               const std::string& name) {
  w_ = reg.track(parameter(Tensor::xavier(in, out, rng)), name + ".w");
  b_ = reg.track(parameter(Tensor(1, out)), name + ".b");
}

Var Linear::forward(const Var& x) const { return add_bias(matmul(x, w_), b_); }

PositionalEncoding::PositionalEncoding(int64_t max_len, int64_t d_model)
    : table_(max_len, d_model) {
  // PE(pos, 2i) = sin(pos / 10000^(2i/d)); PE(pos, 2i+1) = cos(...).
  for (int64_t pos = 0; pos < max_len; ++pos) {
    for (int64_t i = 0; i < d_model; ++i) {
      const double angle =
          pos / std::pow(10000.0, 2.0 * static_cast<double>(i / 2) / static_cast<double>(d_model));
      table_(pos, i) = (i % 2 == 0) ? std::sin(angle) : std::cos(angle);
    }
  }
}

Var PositionalEncoding::forward(const Var& x) const {
  const int64_t len = x->value.rows();
  if (len > table_.rows()) {
    throw InvalidArgument("PositionalEncoding: sequence length " +
                          std::to_string(len) + " exceeds the positional table (max_len " +
                          std::to_string(table_.rows()) + "); re-train with a larger max_len or shorten the input");
  }
  Tensor pos(len, x->value.cols());
  for (int64_t r = 0; r < len; ++r) {
    for (int64_t c = 0; c < pos.cols(); ++c) pos(r, c) = table_(r, c);
  }
  return add(x, constant(std::move(pos)));
}

MultiHeadAttention::MultiHeadAttention(int64_t d_model, int64_t n_heads,
                                       Rng& rng, ParameterRegistry& reg,
                                       const std::string& name) {
  if (d_model % n_heads != 0) {
    throw InvalidArgument("MultiHeadAttention: d_model must divide by heads");
  }
  n_heads_ = n_heads;
  d_head_ = d_model / n_heads;
  // Each head's (d_model, d_head) Xavier draws, q then k then v, placed side
  // by side: the draw order (and so every initial weight) is that of
  // separate per-head projections.
  Tensor wq(d_model, d_model), wk(d_model, d_model), wv(d_model, d_model);
  for (int64_t h = 0; h < n_heads; ++h) {
    for (Tensor* fused : {&wq, &wk, &wv}) {
      const Tensor head = Tensor::xavier(d_model, d_head_, rng);
      for (int64_t r = 0; r < d_model; ++r) {
        for (int64_t c = 0; c < d_head_; ++c) {
          (*fused)(r, h * d_head_ + c) = head(r, c);
        }
      }
    }
  }
  wq_ = reg.track(parameter(std::move(wq)), name + ".wq");
  wk_ = reg.track(parameter(std::move(wk)), name + ".wk");
  wv_ = reg.track(parameter(std::move(wv)), name + ".wv");
  wo_ = reg.track(parameter(Tensor::xavier(d_model, d_model, rng)), name + ".wo");
  bo_ = reg.track(parameter(Tensor(1, d_model)), name + ".bo");
}

Var MultiHeadAttention::forward(const Var& query, const Var& key_value,
                                bool causal, double dropout_p, bool training,
                                Rng& rng) const {
  std::vector<Var> outputs;
  outputs.reserve(static_cast<size_t>(n_heads_));
  const double inv_sqrt_dk = 1.0 / std::sqrt(static_cast<double>(d_head_));
  for (int64_t h = 0; h < n_heads_; ++h) {
    // Slicing the weights (not one fused GEMM's output) keeps each head's
    // GEMMs, and so every activation and gradient, bit for bit per head.
    const int64_t c0 = h * d_head_;
    const Var q = matmul(query, slice_cols(wq_, c0, d_head_));
    const Var k = matmul(key_value, slice_cols(wk_, c0, d_head_));
    const Var v = matmul(key_value, slice_cols(wv_, c0, d_head_));
    const Var attn = attention_probs(matmul_nt(q, k), inv_sqrt_dk, causal,
                                     dropout_p, training, rng);
    outputs.push_back(matmul(attn, v));
  }
  return add_bias(matmul(concat_cols(outputs), wo_), bo_);
}

FeedForward::FeedForward(int64_t d_model, int64_t d_ff, Rng& rng,
                         ParameterRegistry& reg, const std::string& name)
    : in_(d_model, d_ff, rng, reg, name + ".in"),
      out_(d_ff, d_model, rng, reg, name + ".out") {}

Var FeedForward::forward(const Var& x, double dropout_p, bool training,
                         Rng& rng) const {
  Var h = relu(in_.forward(x));
  h = dropout(h, dropout_p, training, rng);
  h = out_.forward(h);
  return dropout(h, dropout_p, training, rng);
}

LayerNormParams::LayerNormParams(int64_t d_model, ParameterRegistry& reg,
                                 const std::string& name) {
  gamma_ = reg.track(parameter(Tensor(1, d_model, 1.0)), name + ".gamma");
  beta_ = reg.track(parameter(Tensor(1, d_model)), name + ".beta");
}

Var LayerNormParams::forward(const Var& x) const {
  return layer_norm(x, gamma_, beta_);
}

EncoderLayer::EncoderLayer(int64_t d_model, int64_t n_heads, int64_t d_ff,
                           Rng& rng, ParameterRegistry& reg,
                           const std::string& name)
    : self_attn_(d_model, n_heads, rng, reg, name + ".self"),
      ffn_(d_model, d_ff, rng, reg, name + ".ffn"),
      norm1_(d_model, reg, name + ".norm1"),
      norm2_(d_model, reg, name + ".norm2") {}

Var EncoderLayer::forward(const Var& x, double dropout_p, bool training,
                          Rng& rng) const {
  // Post-norm residuals as in the original architecture (paper Fig. 1).
  Var attn = self_attn_.forward(x, x, /*causal=*/false, dropout_p, training, rng);
  Var h = norm1_.forward(add(x, dropout(attn, dropout_p, training, rng)));
  Var ff = ffn_.forward(h, dropout_p, training, rng);
  return norm2_.forward(add(h, ff));
}

DecoderLayer::DecoderLayer(int64_t d_model, int64_t n_heads, int64_t d_ff,
                           Rng& rng, ParameterRegistry& reg,
                           const std::string& name)
    : self_attn_(d_model, n_heads, rng, reg, name + ".self"),
      cross_attn_(d_model, n_heads, rng, reg, name + ".cross"),
      ffn_(d_model, d_ff, rng, reg, name + ".ffn"),
      norm1_(d_model, reg, name + ".norm1"),
      norm2_(d_model, reg, name + ".norm2"),
      norm3_(d_model, reg, name + ".norm3") {}

Var DecoderLayer::forward(const Var& x, const Var& memory, double dropout_p,
                          bool training, Rng& rng) const {
  Var self = self_attn_.forward(x, x, /*causal=*/true, dropout_p, training, rng);
  Var h = norm1_.forward(add(x, dropout(self, dropout_p, training, rng)));
  Var cross = cross_attn_.forward(h, memory, /*causal=*/false, dropout_p, training, rng);
  h = norm2_.forward(add(h, dropout(cross, dropout_p, training, rng)));
  Var ff = ffn_.forward(h, dropout_p, training, rng);
  return norm3_.forward(add(h, ff));
}

}  // namespace ota::ml
