// Deterministic, splittable random number generation.
//
// All stochastic components in the library take an explicit seed so that
// every experiment is reproducible. The core generator is xoshiro256**,
// seeded through SplitMix64 (the recommended seeding procedure). On top of
// the raw generator we provide the distributions the PITEX algorithms need:
// uniform doubles, uniform integer ranges, Bernoulli coins, and the
// geometric "skip" variate that powers lazy propagation sampling (Sec 5.1
// of the paper).

#ifndef PITEX_SRC_UTIL_RANDOM_H_
#define PITEX_SRC_UTIL_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "src/util/check.h"

namespace pitex {

/// SplitMix64 step; used for seeding and as a cheap standalone generator.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator. Deterministic, fast, and
/// statistically strong enough for Monte-Carlo estimation. Not
/// cryptographically secure. The draws every sampler makes are defined
/// here, inline, so its loops compile without a call per draw.
class Rng {
 public:
  /// Seeds the generator deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64(&sm);
  }

  /// Returns the next raw 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Returns a double uniformly distributed in [0, 1).
  double NextDouble() {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Returns an integer uniformly distributed in [0, bound). Requires
  /// bound > 0. Uses Lemire's nearly-divisionless method.
  uint64_t NextBounded(uint64_t bound) {
    PITEX_DCHECK(bound > 0);
    // Lemire's method: multiply-shift with rejection to remove modulo
    // bias.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t t = -bound % bound;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Returns a Geometric(p) variate: the 1-based index of the first success
  /// in a sequence of independent Bernoulli(p) trials. Requires p in (0, 1].
  /// For p == 1 the result is always 1. The value can be very large for
  /// tiny p; it saturates at kGeometricInfinity.
  uint64_t NextGeometric(double p) {
    PITEX_DCHECK(p > 0.0 && p <= 1.0);
    if (p >= 1.0) return 1;
    // Inverse transform: X = floor(log(U) / log(1-p)) + 1 with U in
    // (0, 1].
    const double u = 1.0 - NextDouble();  // in (0, 1]
    const double x = std::floor(std::log(u) / std::log1p(-p)) + 1.0;
    if (!(x < static_cast<double>(kGeometricInfinity))) {
      return kGeometricInfinity;
    }
    if (x < 1.0) return 1;
    return static_cast<uint64_t>(x);
  }

  /// Sentinel returned by NextGeometric when the skip exceeds any realistic
  /// sample budget (also used by callers for p == 0 edges).
  static constexpr uint64_t kGeometricInfinity =
      std::numeric_limits<uint64_t>::max() / 2;

  /// Returns a new independent generator derived from this one. Splitting
  /// is used to give each worker/sample stream its own deterministic
  /// sub-stream.
  Rng Split();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace pitex

#endif  // PITEX_SRC_UTIL_RANDOM_H_
