// Numeric tier selection for the inference engine's decode path.
//
// kDouble is the bit-identity reference: every kernel replicates the autograd
// ops' accumulation order, so its token streams match Transformer::greedy_decode
// bit for bit.  kFloat32 is the serving tier: the engine decodes through a
// float32 weight snapshot with SIMD row kernels — half the memory traffic of
// the double path on the decode-shape GEMV/attention loops — and is gated on
// token-level agreement with the reference (bench_infer_tier hard-fails on any
// divergence on trained models, rather than silently degrading results).
//
// The tier is a runtime knob of the decode path: InferenceEngine decode
// calls -> ml::DecodeScheduler::Options -> serve::CampaignServer::Options.
// core::SizingModel's predict and predict_batch decode at the double tier.
#pragma once

#include "common/error.hpp"

namespace ota::ml {

enum class Precision {
  kDouble = 0,   ///< bit-identity reference tier (training-side tensors)
  kFloat32 = 1,  ///< SIMD serving tier, gated on token agreement
};

inline const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kDouble: return "double";
    case Precision::kFloat32: return "float32";
  }
  return "invalid";
}

/// Door-policy validation for precision knobs that arrive through option
/// structs (where an out-of-range value can be forged with a static_cast):
/// throws InvalidArgument naming the call site, returns the value otherwise.
inline Precision validated_precision(Precision p, const char* where) {
  if (p != Precision::kDouble && p != Precision::kFloat32) {
    throw InvalidArgument(std::string(where) +
                          ": invalid precision tier (expected double or "
                          "float32)");
  }
  return p;
}

}  // namespace ota::ml
