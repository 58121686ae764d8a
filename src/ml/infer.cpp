#include "ml/infer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <type_traits>

#include "common/stats.hpp"
#include "par/thread_pool.hpp"

namespace ota::ml {

using nlp::TokenId;
using nlp::Vocabulary;

// Every loop in this file replicates the accumulation order of the reference
// Var ops (ml/ops.cpp) and of the NN GEMM kernel (ml/tensor.cpp) — including
// its skip of zero left-hand values — so that the engine's floating-point
// results are bit-identical to the autograd path's.  Do not "clean up" loop
// orders or hoist terms here without re-running the bit-identity properties
// in tests/test_infer.cpp.
//
// The row kernels are templated on the scalar/tensor type so the float32
// serving tier runs the exact same loop structure over its narrowed weight
// snapshot.  The double instantiations are the pre-existing reference code:
// per-element accumulation order is unchanged, and the `#pragma omp simd`
// hints sit only on lane-independent loops (each output element still sums
// in the same order), never on reductions (which would permit reassociation
// and break the bit-identity contract).
namespace {

/// Initial max for the softmax row scan.  The double value is the historical
/// -1e300 (not numeric_limits::lowest()) so the reference tier stays
/// byte-for-byte identical to the pre-tier code.
template <typename T>
constexpr T score_floor() {
  if constexpr (std::is_same_v<T, double>) {
    return -1e300;
  } else {
    return -1e30f;
  }
}

/// Ascending-p dot product — the reference accumulation order.  The double
/// overload IS the bit-identity contract; do not unroll it.
inline double dot_row(const double* a, const double* b, int64_t n) {
  double acc = 0.0;
  for (int64_t p = 0; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

/// Float32 overload: four independent accumulator chains so the compiler can
/// keep 4+ multiply-adds in flight (the serial chain is the bottleneck on
/// the attention score loop).  f32 has no bit-identity obligation to the
/// double tier — only run-to-run determinism, which a fixed unroll preserves.
inline float dot_row(const float* a, const float* b, int64_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int64_t p = 0;
  for (; p + 4 <= n; p += 4) {
    s0 += a[p + 0] * b[p + 0];
    s1 += a[p + 1] * b[p + 1];
    s2 += a[p + 2] * b[p + 2];
    s3 += a[p + 3] * b[p + 3];
  }
  for (; p < n; ++p) s0 += a[p] * b[p];
  return (s0 + s1) + (s2 + s3);
}

/// out = x * W for one row x (length k), matching the NN GEMM kernel:
/// p-outer / j-inner accumulation with the av == 0 skip.
template <typename TT, typename T = typename TT::value_type>
void project_row(const T* x, const TT& w, T* out) {
  const int64_t k = w.rows(), n = w.cols();
  std::fill(out, out + n, T(0));
  for (int64_t p = 0; p < k; ++p) {
    const T xv = x[p];
    if (xv == T(0)) continue;
    const T* wrow = w.data().data() + p * n;
#pragma omp simd
    for (int64_t j = 0; j < n; ++j) out[j] += xv * wrow[j];
  }
}

template <typename TT, typename T = typename TT::value_type>
void add_bias_row(T* x, const TT& bias) {
  for (int64_t c = 0; c < bias.cols(); ++c) x[c] += bias(0, c);
}

/// In-place softmax over s[0..n), same max/exp/normalize order as the
/// softmax inside attention_probs in ops.cpp, over the visible columns only.
template <typename T>
void softmax_row(T* s, int64_t n) {
  T mx = score_floor<T>();
  for (int64_t c = 0; c < n; ++c) mx = std::max(mx, s[c]);
  T denom = T(0);
  for (int64_t c = 0; c < n; ++c) {
    s[c] = std::exp(s[c] - mx);
    denom += s[c];
  }
  for (int64_t c = 0; c < n; ++c) s[c] /= denom;
}

/// In-place row layer-norm, same statistics and output expression as
/// layer_norm in ops.cpp (eps matches its default).
template <typename TT, typename T = typename TT::value_type>
void layer_norm_row(T* x, int64_t n, const LayerNormWeights<TT>& w) {
  T mu = T(0);
  for (int64_t c = 0; c < n; ++c) mu += x[c];
  mu /= static_cast<T>(n);
  T var = T(0);
  for (int64_t c = 0; c < n; ++c) {
    const T d = x[c] - mu;
    var += d * d;
  }
  var /= static_cast<T>(n);
  const T rs = T(1) / std::sqrt(var + static_cast<T>(1e-5));
#pragma omp simd
  for (int64_t c = 0; c < n; ++c) {
    x[c] = w.gamma(0, c) * (x[c] - mu) * rs + w.beta(0, c);
  }
}

/// Multi-head scaled-dot attention of one query row against cached keys and
/// values (Lk rows of d_model scalars, head columns fused side by side).
/// Writes the fused context row (pre-W_O) into ctx.
template <typename T>
void attend_row(const T* q, const T* keys, const T* values, int64_t lk,
                int64_t d_model, int64_t d_head, T* ctx,
                std::vector<T>& scores) {
  const int64_t n_heads = d_model / d_head;
  const T inv_sqrt_dk = T(1) / std::sqrt(static_cast<T>(d_head));
  std::fill(ctx, ctx + d_model, T(0));
  scores.resize(static_cast<size_t>(lk));
  for (int64_t h = 0; h < n_heads; ++h) {
    const int64_t ho = h * d_head;
    for (int64_t j = 0; j < lk; ++j) {
      scores[static_cast<size_t>(j)] =
          dot_row(q + ho, keys + j * d_model + ho, d_head) * inv_sqrt_dk;
    }
    softmax_row(scores.data(), lk);
    for (int64_t p = 0; p < lk; ++p) {
      const T a = scores[static_cast<size_t>(p)];
      if (a == T(0)) continue;  // the NN kernel's zero skip
      const T* vrow = values + p * d_model + ho;
#pragma omp simd
      for (int64_t c = 0; c < d_head; ++c) ctx[ho + c] += a * vrow[c];
    }
  }
}

/// Full-sequence multi-head attention (encoder self-attention; decoder
/// self-attention always runs incrementally through Session, so there is no
/// causal variant here).  Queries from `q_src`, keys/values from `kv_src`;
/// returns the attention output (L, d_model) after the fused W_O projection
/// and bias.  Each query row goes through the same attend_row kernel the
/// decoder Session uses — one copy of the bit-identity-critical loop.
template <typename TT, typename T = typename TT::value_type>
TT attention_full(const TT& q_src, const TT& kv_src,
                  const FusedAttentionWeights<TT>& w, int64_t d_head) {
  const int64_t lq = q_src.rows(), lk = kv_src.rows(), d_model = w.wq.cols();
  TT q, k, v;
  matmul_into(q_src, w.wq, q);
  matmul_into(kv_src, w.wk, k);
  matmul_into(kv_src, w.wv, v);

  TT ctx(lq, d_model);
  std::vector<T> scores(static_cast<size_t>(lk));
  for (int64_t i = 0; i < lq; ++i) {
    attend_row(&q(i, 0), k.data().data(), v.data().data(), lk, d_model, d_head,
               &ctx(i, 0), scores);
  }
  TT out;
  matmul_into(ctx, w.wo, out);
  for (int64_t r = 0; r < out.rows(); ++r) add_bias_row(&out(r, 0), w.bo);
  return out;
}

/// Position-wise FFN over all rows: relu(x W_in + b_in) W_out + b_out.
template <typename TT, typename T = typename TT::value_type>
TT ffn_full(const TT& x, const FeedForwardWeights<TT>& w) {
  TT h;
  matmul_into(x, w.w_in, h);
  for (int64_t r = 0; r < h.rows(); ++r) add_bias_row(&h(r, 0), w.b_in);
  for (T& v : h.data()) v = v > T(0) ? v : T(0);
  TT out;
  matmul_into(h, w.w_out, out);
  for (int64_t r = 0; r < out.rows(); ++r) add_bias_row(&out(r, 0), w.b_out);
  return out;
}

/// Weight lookup by registry name, so the snapshot survives reordering of
/// the registry as long as names stay stable.
class WeightMap {
 public:
  explicit WeightMap(const Transformer& model) {
    const auto& params = model.parameters();
    const auto& names = model.parameter_names();
    for (size_t i = 0; i < params.size(); ++i) {
      by_name_[names[i]] = &params[i]->value;
    }
  }

  const Tensor& get(const std::string& name) const {
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      throw InvalidArgument("InferenceEngine: missing parameter '" + name +
                            "' in the transformer registry");
    }
    return *it->second;
  }

 private:
  std::map<std::string, const Tensor*> by_name_;
};

/// A double parameter at tier TT: the double tier copies it, the float32 tier
/// narrows it (round to nearest), so both tiers keep the trained layout.
template <typename TT>
TT to_tier(const Tensor& t) {
  if constexpr (std::is_same_v<TT, Tensor>) {
    return t;
  } else {
    return TT::from(t);
  }
}

template <typename TT>
FusedAttentionWeights<TT> snapshot_attention(const WeightMap& w,
                                             const std::string& site) {
  return {to_tier<TT>(w.get(site + ".wq")), to_tier<TT>(w.get(site + ".wk")),
          to_tier<TT>(w.get(site + ".wv")), to_tier<TT>(w.get(site + ".wo")),
          to_tier<TT>(w.get(site + ".bo"))};
}

template <typename TT>
FeedForwardWeights<TT> snapshot_ffn(const WeightMap& w,
                                    const std::string& site) {
  return {to_tier<TT>(w.get(site + ".in.w")),
          to_tier<TT>(w.get(site + ".in.b")),
          to_tier<TT>(w.get(site + ".out.w")),
          to_tier<TT>(w.get(site + ".out.b"))};
}

template <typename TT>
LayerNormWeights<TT> snapshot_norm(const WeightMap& w,
                                   const std::string& site) {
  return {to_tier<TT>(w.get(site + ".gamma")),
          to_tier<TT>(w.get(site + ".beta"))};
}

}  // namespace

template <typename TT>
InferenceEngine::Snapshot<TT> InferenceEngine::build_snapshot(
    const Transformer& model) {
  const TransformerConfig& cfg = model.config();
  const WeightMap w(model);
  Snapshot<TT> s;
  s.src_embed = to_tier<TT>(w.get("src_embed"));
  s.tgt_embed = to_tier<TT>(w.get("tgt_embed"));
  s.pos = to_tier<TT>(model.positional().table());
  s.out_w = to_tier<TT>(w.get("out.w"));
  s.out_b = to_tier<TT>(w.get("out.b"));
  for (int64_t l = 0; l < cfg.n_layers; ++l) {
    const std::string enc = "enc" + std::to_string(l);
    s.encoder.push_back(
        {snapshot_attention<TT>(w, enc + ".self"),
         snapshot_ffn<TT>(w, enc + ".ffn"),
         snapshot_norm<TT>(w, enc + ".norm1"),
         snapshot_norm<TT>(w, enc + ".norm2")});
    const std::string dec = "dec" + std::to_string(l);
    s.decoder.push_back(
        {snapshot_attention<TT>(w, dec + ".self"),
         snapshot_attention<TT>(w, dec + ".cross"),
         snapshot_ffn<TT>(w, dec + ".ffn"),
         snapshot_norm<TT>(w, dec + ".norm1"),
         snapshot_norm<TT>(w, dec + ".norm2"),
         snapshot_norm<TT>(w, dec + ".norm3")});
  }
  return s;
}

InferenceEngine::InferenceEngine(const Transformer& model)
    : cfg_(model.config()),
      d_head_(cfg_.d_model / cfg_.n_heads),
      snapshots_(build_snapshot<Tensor>(model), build_snapshot<TensorF>(model)) {}

/// Encoder pass: embedding+positional rows, then per-layer self-attention /
/// norm / FFN / norm.  The Tensor instantiation is the bit-identity
/// reference; the TensorF one runs the same loops on the f32 snapshot.
template <typename TT>
TT InferenceEngine::encode(const std::vector<TokenId>& src) const {
  using T = typename TT::value_type;
  if (src.empty()) {
    throw InvalidArgument("InferenceEngine::encode: empty input");
  }
  const int64_t len = static_cast<int64_t>(src.size());
  if (len > cfg_.max_len) {
    throw InvalidArgument(
        "InferenceEngine::encode: input length " + std::to_string(len) +
        " exceeds the positional table (max_len " + std::to_string(cfg_.max_len) +
        "); re-train with a larger max_len or shorten the input");
  }
  const Snapshot<TT>& snap = snapshot<TT>();
  const T sqrt_d = std::sqrt(static_cast<T>(cfg_.d_model));
  TT x(len, cfg_.d_model);
  for (int64_t i = 0; i < len; ++i) {
    const TokenId id = src[static_cast<size_t>(i)];
    if (id < 0 || id >= snap.src_embed.rows()) {
      throw InvalidArgument("InferenceEngine::encode: token id out of range");
    }
#pragma omp simd
    for (int64_t c = 0; c < cfg_.d_model; ++c) {
      x(i, c) = snap.src_embed(id, c) * sqrt_d + snap.pos(i, c);
    }
  }
  for (const EncoderLayerWeights<TT>& layer : snap.encoder) {
    const TT attn = attention_full(x, x, layer.self, d_head_);
    for (int64_t i = 0; i < x.size(); ++i) x.at(i) += attn.at(i);
    for (int64_t r = 0; r < len; ++r) {
      layer_norm_row(&x(r, 0), cfg_.d_model, layer.norm1);
    }
    const TT ff = ffn_full(x, layer.ffn);
    for (int64_t i = 0; i < x.size(); ++i) x.at(i) += ff.at(i);
    for (int64_t r = 0; r < len; ++r) {
      layer_norm_row(&x(r, 0), cfg_.d_model, layer.norm2);
    }
  }
  return x;
}

template Tensor InferenceEngine::encode<Tensor>(
    const std::vector<TokenId>& src) const;
template TensorF InferenceEngine::encode<TensorF>(
    const std::vector<TokenId>& src) const;

// precision() reads the tier off the state variant's alternative index.
static_assert(static_cast<int>(Precision::kDouble) == 0 &&
              static_cast<int>(Precision::kFloat32) == 1);

InferenceEngine::Session::Session(const InferenceEngine& engine,
                                  const std::vector<TokenId>& src,
                                  Precision precision)
    : eng_(engine), logits_(1, engine.cfg_.vocab_size) {
  STAT_REGION("ml.session.encode");
  if (validated_precision(precision, "InferenceEngine::Session") ==
      Precision::kDouble) {
    init<Tensor>(src);
  } else {
    init<TensorF>(src);
  }
}

template <typename TT>
void InferenceEngine::Session::init(const std::vector<TokenId>& src) {
  const Snapshot<TT>& snap = eng_.snapshot<TT>();
  DecodeState<TT>& s = state_.emplace<DecodeState<TT>>();
  s.memory = eng_.encode<TT>(src);
  const size_t layers = snap.decoder.size();
  const size_t d = static_cast<size_t>(eng_.cfg_.d_model);
  s.cross_k.resize(layers);
  s.cross_v.resize(layers);
  s.self_k.resize(layers);
  s.self_v.resize(layers);
  for (auto* row : {&s.x, &s.row, &s.ctx, &s.out}) row->resize(d);
  if constexpr (!std::is_same_v<TT, Tensor>) {
    s.logits.resize(static_cast<size_t>(eng_.cfg_.vocab_size));
  }
  for (size_t l = 0; l < layers; ++l) {
    // The reference recomputes K/V from the (fixed) memory every step; the
    // values never change, so computing them once per request is exact.
    matmul_into(s.memory, snap.decoder[l].cross.wk, s.cross_k[l]);
    matmul_into(s.memory, snap.decoder[l].cross.wv, s.cross_v[l]);
  }
}

const Tensor& InferenceEngine::Session::step(TokenId token) {
  const TransformerConfig& cfg = eng_.cfg_;
  if (length_ + 1 > cfg.max_len) {
    throw InvalidArgument(
        "InferenceEngine::Session::step: decoder length " +
        std::to_string(length_ + 1) + " exceeds the positional table (max_len " +
        std::to_string(cfg.max_len) + ")");
  }
  if (token < 0 || token >= cfg.vocab_size) {
    throw InvalidArgument("InferenceEngine::Session::step: token id out of range");
  }
  STAT_REGION("ml.session.step");
  std::visit([&](auto& s) { step_impl(s, token); }, state_);
  ++length_;
  return logits_;
}

template <typename TT>
void InferenceEngine::Session::step_impl(DecodeState<TT>& s, TokenId token) {
  using T = typename TT::value_type;
  const Snapshot<TT>& snap = eng_.snapshot<TT>();
  const int64_t d = eng_.cfg_.d_model;
  const T sqrt_d = std::sqrt(static_cast<T>(d));
  T* x = s.x.data();
  T* row = s.row.data();
  T* ctx = s.ctx.data();
  T* out = s.out.data();
  for (int64_t c = 0; c < d; ++c) {
    x[c] = snap.tgt_embed(token, c) * sqrt_d + snap.pos(length_, c);
  }

  // x += out, then layer-norm: the residual that closes every sub-layer.
  const auto add_and_norm = [&](const LayerNormWeights<TT>& norm) {
    for (int64_t c = 0; c < d; ++c) x[c] += out[c];
    layer_norm_row(x, d, norm);
  };
  // Query projection, attention over `lk` cached key/value rows, output
  // projection, residual.
  const auto attend = [&](const FusedAttentionWeights<TT>& w, const T* keys,
                          const T* values, int64_t lk,
                          const LayerNormWeights<TT>& norm) {
    project_row(x, w.wq, row);
    attend_row(row, keys, values, lk, d, eng_.d_head_, ctx, s.scores);
    project_row(ctx, w.wo, out);
    add_bias_row(out, w.bo);
    add_and_norm(norm);
  };

  for (size_t l = 0; l < snap.decoder.size(); ++l) {
    const DecoderLayerWeights<TT>& layer = snap.decoder[l];

    // Masked self-attention: project this position's K/V once, append to the
    // cache, attend the query against every cached position.  The causal mask
    // is implicit — the cache only holds positions <= this one.
    project_row(x, layer.self.wk, row);
    s.self_k[l].insert(s.self_k[l].end(), row, row + d);
    project_row(x, layer.self.wv, row);
    s.self_v[l].insert(s.self_v[l].end(), row, row + d);
    attend(layer.self, s.self_k[l].data(), s.self_v[l].data(), length_ + 1,
           layer.norm1);

    // Cross-attention against the precomputed memory K/V.
    attend(layer.cross, s.cross_k[l].data().data(), s.cross_v[l].data().data(),
           s.memory.rows(), layer.norm2);

    // Position-wise FFN.
    s.ff.resize(static_cast<size_t>(layer.ffn.w_in.cols()));
    project_row(x, layer.ffn.w_in, s.ff.data());
    add_bias_row(s.ff.data(), layer.ffn.b_in);
    for (T& v : s.ff) v = v > T(0) ? v : T(0);
    project_row(s.ff.data(), layer.ffn.w_out, out);
    add_bias_row(out, layer.ffn.b_out);
    add_and_norm(layer.norm3);
  }

  // The double tier writes the returned row in place.  The f32 tier writes
  // its own row and widens it: widening is monotone and tie-preserving, so
  // the argmax is unchanged and every decode loop stays tier-agnostic.
  if constexpr (std::is_same_v<TT, Tensor>) {
    project_row(x, snap.out_w, logits_.data().data());
    add_bias_row(logits_.data().data(), snap.out_b);
  } else {
    project_row(x, snap.out_w, s.logits.data());
    add_bias_row(s.logits.data(), snap.out_b);
    std::copy(s.logits.begin(), s.logits.end(), logits_.data().begin());
  }
}

std::vector<TokenId> InferenceEngine::greedy_decode(
    const std::vector<TokenId>& src, int64_t max_len,
    Precision precision) const {
  Session session(*this, src, precision);
  // Same step clamp as Transformer::greedy_decode: the decoder input at step
  // s holds s+1 tokens, so cfg_.max_len steps keep every position in range.
  const int64_t steps = std::min(max_len, cfg_.max_len);
  std::vector<TokenId> out;
  TokenId prev = Vocabulary::kBos;
  for (int64_t step = 0; step < steps; ++step) {
    const TokenId best = argmax_token(session.step(prev));
    if (best == Vocabulary::kEos) break;
    out.push_back(best);
    prev = best;
  }
  return out;
}

std::vector<std::vector<TokenId>> InferenceEngine::greedy_decode_batch(
    const std::vector<std::vector<TokenId>>& srcs, int64_t max_len,
    par::ThreadPool& pool, Precision precision) const {
  std::vector<std::vector<TokenId>> out(srcs.size());
  if (srcs.empty()) return out;
  if (max_len <= 0) {
    throw InvalidArgument(
        "InferenceEngine::greedy_decode_batch: max_tokens must be positive, "
        "got " + std::to_string(max_len) +
        " (a zero token budget would silently decode nothing)");
  }
  validated_precision(precision, "InferenceEngine::greedy_decode_batch");
  // Requests are independent and share only the immutable engine, so the
  // result is bit-identical for any pool size.
  pool.parallel_for(srcs.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = greedy_decode(srcs[i], max_len, precision);
    }
  });
  return out;
}

std::vector<std::vector<TokenId>> InferenceEngine::greedy_decode_batch(
    const std::vector<std::vector<TokenId>>& srcs, int64_t max_len,
    int threads, Precision precision) const {
  if (threads <= 0) {
    // Default path: the persistent process-wide pool, so back-to-back batch
    // calls reuse one set of workers instead of spawning a pool per call.
    return greedy_decode_batch(srcs, max_len, par::global_pool(), precision);
  }
  // Explicit worker count: a dedicated pool of that size, never larger than
  // the batch (a batch of one stays inline).
  par::ThreadPool pool(
      std::min(threads, static_cast<int>(std::max<size_t>(srcs.size(), 1))));
  return greedy_decode_batch(srcs, max_len, pool, precision);
}

}  // namespace ota::ml
