// Abstraction over Stage II: anything that maps an encoder sequence to a
// decoder sequence.  The transformer (SizingModel) is the paper's instance;
// NearestNeighborPredictor is a non-learned reference used by tests and the
// ablation benchmarks (how much does the transformer beat a lookup of the
// closest training design?); serve::ScheduledPredictor routes each call
// through a campaign server's shared decode scheduler.
#pragma once

#include <string>
#include <vector>

#include "common/cancel.hpp"

namespace ota::core {

class Predictor {
 public:
  virtual ~Predictor() = default;
  /// Decoder-sequence prediction for an encoder sequence.  `cancel` is a
  /// cooperative signal honoured at the implementation's natural
  /// granularity: the serial model checks it before decoding, the
  /// scheduler-backed predictor retires an in-flight decode mid-round.  A
  /// cancelled prediction throws ota::Cancelled.
  virtual std::string predict(const std::string& encoder_text, int max_tokens,
                              const CancelSignal& cancel) const = 0;

  /// Predictions for many encoder sequences, positionally aligned with the
  /// input.  The default is a serial loop over predict(); implementations
  /// with a faster path (SizingModel decodes batches concurrently through
  /// its inference engine) override it.  Contract for overrides: results
  /// must be bit-identical to the serial loop for any `threads` value
  /// (0 = auto: OTA_THREADS env, else hardware concurrency).
  virtual std::vector<std::string> predict_batch(
      const std::vector<std::string>& encoder_texts, int max_tokens,
      int threads = 0) const {
    (void)threads;
    std::vector<std::string> out;
    out.reserve(encoder_texts.size());
    for (const std::string& text : encoder_texts) {
      out.push_back(predict(text, max_tokens, CancelSignal{}));
    }
    return out;
  }
};

}  // namespace ota::core
