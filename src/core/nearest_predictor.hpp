// Nearest-neighbor reference predictor.
//
// Answers a specification query with the decoder text of the training design
// whose measured specs are closest (normalized distance on gain [dB] and the
// log of BW/UGF).  No learning involved: this is the "just memorize the
// dataset" baseline the transformer must beat on unseen specifications, and a
// deterministic stand-in for Stage II in copilot tests.
#pragma once

#include <vector>

#include "core/predictor.hpp"
#include "core/sequence_builder.hpp"

namespace ota::core {

class NearestNeighborPredictor : public Predictor {
 public:
  NearestNeighborPredictor(const SequenceBuilder& builder,
                           std::vector<Design> designs);

  /// A lookup, so it finishes before any cancel could matter; `cancel` is
  /// ignored.
  std::string predict(const std::string& encoder_text, int max_tokens,
                      const CancelSignal& cancel) const override;

  /// The training design closest to the given specs.
  const Design& nearest(const Specs& specs) const;

 private:
  const SequenceBuilder& builder_;
  std::vector<Design> designs_;
};

/// Extracts the specification triple back out of an encoder sequence
/// ("... SPEC 20.1dB 11.4MHz 119MHz"); throws on malformed text.
Specs parse_encoder_specs(const std::string& encoder_text);

}  // namespace ota::core
