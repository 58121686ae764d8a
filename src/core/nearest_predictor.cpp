#include "core/nearest_predictor.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"

namespace ota::core {

Specs parse_encoder_specs(const std::string& encoder_text) {
  const auto words = split(encoder_text, " ");
  for (size_t i = 0; i < words.size(); ++i) {
    if (words[i] != "SPEC" || i + 3 >= words.size()) continue;
    const auto gain = parse_si(words[i + 1], "dB");
    const auto bw = parse_si(words[i + 2], "Hz");
    const auto ugf = parse_si(words[i + 3], "Hz");
    if (gain && bw && ugf) return Specs{*gain, *bw, *ugf};
  }
  throw InvalidArgument("parse_encoder_specs: no SPEC block found");
}

NearestNeighborPredictor::NearestNeighborPredictor(
    const SequenceBuilder& builder, std::vector<Design> designs)
    : builder_(builder), designs_(std::move(designs)) {
  if (designs_.empty()) {
    throw InvalidArgument("NearestNeighborPredictor: empty design set");
  }
}

const Design& NearestNeighborPredictor::nearest(const Specs& s) const {
  const Design* best = &designs_.front();
  double best_d = 1e300;
  for (const auto& d : designs_) {
    const double dg = (d.specs.gain_db - s.gain_db) / 10.0;
    const double db = std::log(d.specs.bw_hz / s.bw_hz);
    const double du = std::log(d.specs.ugf_hz / s.ugf_hz);
    const double dist = dg * dg + db * db + du * du;
    if (dist < best_d) {
      best_d = dist;
      best = &d;
    }
  }
  return *best;
}

std::string NearestNeighborPredictor::predict(
    const std::string& encoder_text, int /*max_tokens*/,
    const CancelSignal& /*cancel*/) const {
  return builder_.decoder_text(nearest(parse_encoder_specs(encoder_text)));
}

}  // namespace ota::core
