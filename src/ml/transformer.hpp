// The encoder-decoder transformer (paper Section III-C).
//
// Architecture follows Vaswani et al. with the paper's adaptation knobs: the
// embedding width and head count are configurable (the paper uses 720/12 on a
// GPU; the CPU-scale benchmark defaults are smaller), the loss is weighted
// cross-entropy with extra weight on numeric tokens, and decoding is greedy.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ml/layers.hpp"
#include "nlp/vocabulary.hpp"

namespace ota::ml {

/// Largest positional table (max_len) a Transformer builds.  The table is
/// computed, not stored, so a model file's size cannot bound it; this does.
inline constexpr int64_t kMaxPositions = 1 << 16;

struct TransformerConfig {
  int64_t vocab_size = 0;   ///< set from the tokenizer
  int64_t d_model = 64;     ///< paper: 720
  int64_t n_heads = 4;      ///< paper: 12
  int64_t n_layers = 2;     ///< encoder and decoder stack depth (paper: 6)
  int64_t d_ff = 128;       ///< position-wise FFN width
  int64_t max_len = 1024;   ///< positional table size, in [1, kMaxPositions]
  double dropout = 0.1;     ///< finite, in [0, 1); checked by Transformer
  uint64_t seed = 1234;
};

class Transformer {
 public:
  explicit Transformer(const TransformerConfig& config);

  const TransformerConfig& config() const { return cfg_; }
  const std::vector<Var>& parameters() const { return reg_.parameters(); }
  /// Registry names aligned with parameters(); InferenceEngine snapshots
  /// weights by these names.
  const std::vector<std::string>& parameter_names() const { return reg_.names(); }
  const PositionalEncoding& positional() const { return pos_; }

  /// Encoder memory for a source token sequence.
  Var encode(const std::vector<nlp::TokenId>& src, bool training, Rng& rng) const;

  /// Decoder logits (L_tgt, vocab) given memory and decoder input tokens.
  Var decode(const Var& memory, const std::vector<nlp::TokenId>& tgt_in,
             bool training, Rng& rng) const;

  /// Teacher-forced training loss for one (src, tgt) pair.  The target is
  /// consumed as  in: <bos> t1..tn   out: t1..tn <eos>, with per-token weights
  /// (numeric tokens get the paper's 1.2x weight by default upstream).
  Var loss(const std::vector<nlp::TokenId>& src,
           const std::vector<nlp::TokenId>& tgt,
           const std::vector<double>& target_weights, Rng& rng,
           bool training = true) const;

  /// Greedy autoregressive decoding until <eos> or max_len.  `max_len` is
  /// clamped to the positional table size (config().max_len) so a generous
  /// token budget can never index past the table; an encoder input longer
  /// than the table still throws (there is no way to shorten it for the
  /// caller).  This Var-based path is the training/reference implementation;
  /// production decoding goes through ml::InferenceEngine (infer.hpp), which
  /// is property-tested to emit bit-identical tokens.
  std::vector<nlp::TokenId> greedy_decode(const std::vector<nlp::TokenId>& src,
                                          int64_t max_len) const;

  /// Overwrites every parameter value with `other`'s (architectures must
  /// match).  The data-parallel trainer re-syncs its per-worker replicas
  /// from the master model through this after each optimizer step.
  void copy_parameters_from(const Transformer& other);

  /// Binary weight serialization (architecture must match on load).
  void save(std::ostream& os) const;
  void load(std::istream& is);
  /// The number of bytes save() writes for a model of `config`, computed
  /// without building one (the model-file loader checks it against the file
  /// before allocating).  `config` must already be bounded, as the loader's
  /// plausibility check does, or the count can overflow.
  static int64_t saved_bytes(const TransformerConfig& config);

  /// Total number of scalar parameters.
  int64_t parameter_count() const;

 private:
  TransformerConfig cfg_;
  ParameterRegistry reg_;
  Var src_embed_, tgt_embed_;
  PositionalEncoding pos_;
  std::vector<EncoderLayer> encoder_;
  std::vector<DecoderLayer> decoder_;
  Var out_w_, out_b_;
  mutable Rng inference_rng_{0};  // dropout disabled at inference; unused draws
};

/// Greedy next-token choice over row `row` of a logits matrix: the lowest
/// index of the maximum value.  The single argmax used by every decode path —
/// Transformer::greedy_decode, InferenceEngine::greedy_decode(_batch) and the
/// continuous-batching DecodeScheduler — so tie-breaking can never diverge
/// between them.
nlp::TokenId argmax_token(const Tensor& logits, int64_t row = 0);

}  // namespace ota::ml
