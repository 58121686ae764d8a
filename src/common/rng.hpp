// Deterministic random number generation.
//
// All stochastic components (data-generation sweep jitter, parameter
// initialization, dropout, baseline optimizers) draw from a seeded Rng so every
// experiment in the repository is reproducible bit-for-bit given its seed.
//
// Threading contract: Rng is a mutable value type with no internal locking.
// Never share one instance across threads.  Parallel call sites either keep
// the single Rng on the coordinating thread (baseline optimizers: all draws
// happen before work is fanned out) or give every independent work item its
// own counted stream via Rng(seed, stream) — the scheme that makes dataset
// generation bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <random>

namespace ota {

/// SplitMix64 (Steele, Lea & Flood; the java.util.SplittableRandom mixer).
/// Used both as a tiny standalone generator and as the seed deriver for
/// counted Rng streams: it decorrelates consecutive (seed, stream) pairs so
/// stream k and stream k+1 of the same seed share no visible structure.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(uint64_t seed) : state_(seed) {}

  constexpr uint64_t next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Seed of counted stream `stream` under master seed `seed`: the SplitMix64
/// output at counter seed + (stream + 1) * golden-gamma, i.e. sampling the
/// canonical SplitMix64 sequence of `seed` at position `stream`.
constexpr uint64_t stream_seed(uint64_t seed, uint64_t stream) {
  SplitMix64 sm(seed + stream * 0x9E3779B97F4A7C15ULL);
  return sm.next();
}

/// std::bernoulli_distribution(p) over a std::mt19937_64 draw, as one integer
/// compare.  The distribution consumes exactly one 64-bit draw x and maps it
/// monotonically to a double u(x) (libstdc++: x * 2^-64, clamped below 1)
/// before testing u(x) < p, so the draws it accepts are exactly [0, T) for
/// one threshold T.  The constructor finds T by bisection over the
/// distribution itself, fed one fixed draw at a time, so the compare agrees
/// with the library for every draw by construction; a hot loop then pays one
/// uint64 compare per element instead of a uint64->double conversion and an
/// unpredictable branch.  Requires 0 <= p <= 1, as the distribution does.
class BernoulliThreshold {
 public:
  explicit BernoulliThreshold(double p) {
    const auto accepts = [p](uint64_t x) {
      FixedDraw draw{x};
      return std::bernoulli_distribution(p)(draw);
    };
    always_ = accepts(FixedDraw::max());
    if (always_) return;
    uint64_t lo = 0, hi = FixedDraw::max();  // accepts(hi) is false
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (accepts(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    below_ = lo;
  }

  /// What std::bernoulli_distribution(p) returns for the engine draw `x`.
  bool operator()(uint64_t x) const { return always_ || x < below_; }

  /// T, the first rejected draw.  Unused when p accepts every draw.
  uint64_t threshold() const { return below_; }

 private:
  /// A generator that returns one preset mt19937_64-range value.
  struct FixedDraw {
    using result_type = std::mt19937_64::result_type;
    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }
    result_type operator()() const { return x; }
    result_type x;
  };

  uint64_t below_ = 0;
  bool always_ = false;
};

/// A seeded pseudo-random source.  Thin wrapper over std::mt19937_64 with the
/// handful of draw shapes the library needs.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5EED5EEDULL) : engine_(seed) {}

  /// Counted-stream constructor: Rng(seed, k) is the k-th independent stream
  /// of `seed`.  Per-worker / per-work-item streams built this way make
  /// parallel sampling deterministic regardless of thread count.
  Rng(uint64_t seed, uint64_t stream) : engine_(stream_seed(seed, stream)) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal scaled by `stddev` around `mean`.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-uniform draw in [lo, hi]; natural for width sweeps spanning decades.
  double log_uniform(double lo, double hi) {
    return std::exp(uniform(std::log(lo), std::log(hi)));
  }

  /// Underlying engine, for std::shuffle and distribution reuse.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ota
