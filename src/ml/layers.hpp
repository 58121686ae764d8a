// Transformer building blocks (Vaswani et al., as adapted in the paper):
// linear projections, sinusoidal positional encoding, multi-head attention,
// position-wise feed-forward, and the encoder/decoder blocks with residual
// connections and layer normalization.
#pragma once

#include <string>
#include <vector>

#include "ml/ops.hpp"

namespace ota::ml {

/// Collects trainable parameters for the optimizer and serialization.
class ParameterRegistry {
 public:
  Var track(Var p, const std::string& name);
  const std::vector<Var>& parameters() const { return params_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<Var> params_;
  std::vector<std::string> names_;
};

/// y = x W + b.
class Linear {
 public:
  Linear() = default;
  Linear(int64_t in, int64_t out, Rng& rng, ParameterRegistry& reg,
         const std::string& name);
  Var forward(const Var& x) const;

 private:
  Var w_, b_;
};

/// Fixed sine/cosine positional table added to the (scaled) embeddings.
class PositionalEncoding {
 public:
  PositionalEncoding() = default;
  PositionalEncoding(int64_t max_len, int64_t d_model);
  /// Adds positions 0..L-1 to x (L,d).
  Var forward(const Var& x) const;
  /// The raw (max_len, d_model) table; InferenceEngine reads it directly.
  const Tensor& table() const { return table_; }

 private:
  Tensor table_;
};

/// Multi-head scaled dot-product attention.  Q, K and V are each one
/// (d_model, d_model) parameter (`<name>.wq/.wk/.wv`); head h owns columns
/// [h*d_head, (h+1)*d_head), the layout InferenceEngine computes with.
class MultiHeadAttention {
 public:
  MultiHeadAttention() = default;
  MultiHeadAttention(int64_t d_model, int64_t n_heads, Rng& rng,
                     ParameterRegistry& reg, const std::string& name);
  /// q from the query sequence, k/v from the key-value sequence; causal
  /// restricts each position to earlier ones (decoder self-attention).
  Var forward(const Var& query, const Var& key_value, bool causal,
              double dropout_p, bool training, Rng& rng) const;

 private:
  Var wq_, wk_, wv_, wo_, bo_;
  int64_t n_heads_ = 0, d_head_ = 0;
};

/// Two-layer position-wise FFN with ReLU and dropout (paper Section II-A).
class FeedForward {
 public:
  FeedForward() = default;
  FeedForward(int64_t d_model, int64_t d_ff, Rng& rng, ParameterRegistry& reg,
              const std::string& name);
  Var forward(const Var& x, double dropout_p, bool training, Rng& rng) const;

 private:
  Linear in_, out_;
};

/// Learned gain/bias pair for one layer-norm site.
class LayerNormParams {
 public:
  LayerNormParams() = default;
  LayerNormParams(int64_t d_model, ParameterRegistry& reg,
                  const std::string& name);
  Var forward(const Var& x) const;

 private:
  Var gamma_, beta_;
};

/// Encoder block: self-attention + FFN, post-norm residuals.
class EncoderLayer {
 public:
  EncoderLayer() = default;
  EncoderLayer(int64_t d_model, int64_t n_heads, int64_t d_ff, Rng& rng,
               ParameterRegistry& reg, const std::string& name);
  Var forward(const Var& x, double dropout_p, bool training, Rng& rng) const;

 private:
  MultiHeadAttention self_attn_;
  FeedForward ffn_;
  LayerNormParams norm1_, norm2_;
};

/// Decoder block: masked self-attention + cross-attention + FFN.
class DecoderLayer {
 public:
  DecoderLayer() = default;
  DecoderLayer(int64_t d_model, int64_t n_heads, int64_t d_ff, Rng& rng,
               ParameterRegistry& reg, const std::string& name);
  Var forward(const Var& x, const Var& memory, double dropout_p, bool training,
              Rng& rng) const;

 private:
  MultiHeadAttention self_attn_, cross_attn_;
  FeedForward ffn_;
  LayerNormParams norm1_, norm2_, norm3_;
};

}  // namespace ota::ml
