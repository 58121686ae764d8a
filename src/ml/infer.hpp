// Autograd-free batched inference engine for the trained transformer.
//
// Transformer (transformer.hpp) is the mutable build/train representation:
// every forward constructs a Var graph so gradients can flow.  Greedy decoding
// through it re-runs the full decoder over the whole prefix at every step —
// O(L^2) work per token, O(L^3) per sequence — and allocates a throwaway
// autograd graph each time.  InferenceEngine is the lean evaluation
// representation compiled once from a trained model:
//
//  * weights are snapshotted into plain tensors in the trained layout, where
//    each attention site's Q/K/V is one d_model x d_model matrix (one matmul
//    per projection instead of one per head);
//  * both precision tiers (ml/precision.hpp) share one templated snapshot
//    layout and one encode and decode-step body, instantiated for Tensor
//    (the double reference) and TensorF (the float32 serving tier);
//  * encode runs once per request and the cross-attention K/V of every
//    decoder layer are precomputed from the memory;
//  * decoding is incremental through a per-layer KV cache, so each step is
//    one-row work — O(L) per token, O(L^2) per sequence;
//  * greedy_decode_batch decodes many requests concurrently on an ota::par
//    thread pool (requests share only the immutable engine, so results are
//    bit-identical for any thread count).
//
// Numerical contract: at the double tier the engine's greedy token output is
// IDENTICAL — token for token, bit for bit — to Transformer::greedy_decode.
// Every loop here replicates the accumulation order (and the zero-skip of the
// NN GEMM kernel in tensor.cpp) of the reference ops, and one fused
// projection computes each head's output columns with the same dot products
// as the reference's per-head column slice, because GEMM columns are
// independent.  tests/test_infer.cpp property-tests this on
// trained models and pins both tiers' logits bit for bit.
#pragma once

#include <tuple>
#include <variant>
#include <vector>

#include "ml/precision.hpp"
#include "ml/transformer.hpp"

namespace ota::ml {

/// One attention site in the trained layout: column block
/// [h*d_head, (h+1)*d_head) of wq/wk/wv is head h's projection.
/// Templated on the tensor type (TT = Tensor or TensorF), like every weight
/// struct below, so both precision tiers share one layout.
template <typename TT>
struct FusedAttentionWeights {
  TT wq, wk, wv;  ///< (d_model, d_model)
  TT wo;          ///< (d_model, d_model)
  TT bo;          ///< (1, d_model)
};

template <typename TT>
struct FeedForwardWeights {
  TT w_in, b_in;    ///< (d_model, d_ff), (1, d_ff)
  TT w_out, b_out;  ///< (d_ff, d_model), (1, d_model)
};

template <typename TT>
struct LayerNormWeights {
  TT gamma, beta;  ///< (1, d_model)
};

template <typename TT>
struct EncoderLayerWeights {
  FusedAttentionWeights<TT> self;
  FeedForwardWeights<TT> ffn;
  LayerNormWeights<TT> norm1, norm2;
};

template <typename TT>
struct DecoderLayerWeights {
  FusedAttentionWeights<TT> self, cross;
  FeedForwardWeights<TT> ffn;
  LayerNormWeights<TT> norm1, norm2, norm3;
};

class InferenceEngine {
 public:
  /// Snapshots the model's weights at both tiers — the double reference copy
  /// and a float32 copy narrowed from the same fused tensors (taken in the
  /// same compile, so both tiers are always available at decode time).  The
  /// engine keeps no reference to the Transformer; retraining or mutating it
  /// does not affect the engine.
  explicit InferenceEngine(const Transformer& model);

  const TransformerConfig& config() const { return cfg_; }

  /// Encoder memory (L, d_model) at the tier of TT (Tensor or TensorF, the
  /// only two instantiations).  The Tensor result is bit-identical to
  /// Transformer::encode at inference settings.  Throws InvalidArgument for
  /// an empty input or one longer than the positional table.
  template <typename TT>
  TT encode(const std::vector<nlp::TokenId>& src) const;

  /// Greedy decode.  At Precision::kDouble (the default) the output is
  /// token-for-token identical to Transformer::greedy_decode (max_len is
  /// clamped to config().max_len the same way).  Precision::kFloat32
  /// decodes through the f32 snapshot — deterministic run to run, and
  /// token-identical to the double tier on trained models (the agreement
  /// property bench_infer_tier and the test suites gate on).
  std::vector<nlp::TokenId> greedy_decode(
      const std::vector<nlp::TokenId>& src, int64_t max_len,
      Precision precision = Precision::kDouble) const;

  /// Decodes every request independently on a thread pool.  `threads` 0
  /// (the default) runs on the persistent process-wide pool
  /// (par::global_pool(), sized by OTA_THREADS / hardware concurrency at
  /// first use); a positive count spawns a dedicated pool of that size for
  /// the call — the path the determinism-sweep tests rely on.  Results are
  /// positionally aligned with `srcs` and bit-identical for any thread
  /// count, including 1 (at either precision tier).  Throws InvalidArgument
  /// when max_len <= 0 and the batch is non-empty (decoding zero tokens is
  /// always a caller bug).
  std::vector<std::vector<nlp::TokenId>> greedy_decode_batch(
      const std::vector<std::vector<nlp::TokenId>>& srcs, int64_t max_len,
      int threads = 0, Precision precision = Precision::kDouble) const;

  /// Incremental decoding state for one request: the encoder memory, the
  /// precomputed cross-attention K/V of every decoder layer, and the growing
  /// self-attention KV cache.  step() feeds one token and returns the
  /// next-token logits row.  Exposed for tests (incremental-vs-full logits
  /// agreement) and for callers that need the logits, not just the argmax.
  class Session {
   public:
    /// `precision` selects the numeric tier for this session's whole decode
    /// (encode pass, KV caches, kernels).  The float32 tier's logits are
    /// widened into the double row step() returns, which preserves the
    /// argmax exactly (widening is monotone and tie-preserving), so every
    /// downstream decode loop is tier-agnostic.
    Session(const InferenceEngine& engine, const std::vector<nlp::TokenId>& src,
            Precision precision = Precision::kDouble);

    /// Feeds `token` at the next position and returns the logits (1, vocab)
    /// for the following token.  Throws InvalidArgument once the decoder
    /// length would exceed the positional table.
    const Tensor& step(nlp::TokenId token);

    /// Number of tokens fed so far.
    int64_t length() const { return length_; }

    Precision precision() const {
      return static_cast<Precision>(state_.index());
    }

   private:
    /// One tier's decode state.
    template <typename TT>
    struct DecodeState {
      using T = typename TT::value_type;
      TT memory;  ///< (L_src, d_model)
      /// Per decoder layer: cross-attention K/V (L_src, d_model), computed
      /// once.
      std::vector<TT> cross_k, cross_v;
      /// Per decoder layer: self-attention KV cache, row-major (length_ rows
      /// of d_model scalars), appended one row per step.
      std::vector<std::vector<T>> self_k, self_v;
      /// Scratch rows reused across steps (hot path: no per-token
      /// allocation).  `logits` is only used by the f32 tier, which widens
      /// it into Session::logits_.
      std::vector<T> x, row, ctx, out, scores, ff, logits;
    };

    template <typename TT>
    void init(const std::vector<nlp::TokenId>& src);
    template <typename TT>
    void step_impl(DecodeState<TT>& s, nlp::TokenId token);

    const InferenceEngine& eng_;
    /// The session's tier state; the alternative index is the Precision.
    std::variant<DecodeState<Tensor>, DecodeState<TensorF>> state_;
    Tensor logits_;  ///< (1, vocab), the row step() returns
    int64_t length_ = 0;
  };

 private:
  /// One tier's copy of every weight the engine reads.
  template <typename TT>
  struct Snapshot {
    TT src_embed, tgt_embed;  ///< (vocab, d_model)
    TT pos;                   ///< (max_len, d_model) positional table
    std::vector<EncoderLayerWeights<TT>> encoder;
    std::vector<DecoderLayerWeights<TT>> decoder;
    TT out_w;  ///< (d_model, vocab)
    TT out_b;  ///< (1, vocab)
  };

  template <typename TT>
  static Snapshot<TT> build_snapshot(const Transformer& model);

  template <typename TT>
  const Snapshot<TT>& snapshot() const {
    return std::get<Snapshot<TT>>(snapshots_);
  }

  TransformerConfig cfg_;
  int64_t d_head_ = 0;
  std::tuple<Snapshot<Tensor>, Snapshot<TensorF>> snapshots_;
};

}  // namespace ota::ml
