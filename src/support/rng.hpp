// Deterministic, splittable pseudo-random number generation.
//
// Every simulation trial owns its own generator seeded from a master seed
// and a trial index, so Monte-Carlo sweeps are reproducible regardless of
// how trials are scheduled across threads (Core Guidelines CP.3: minimize
// shared writable data — each task gets a private stream).
#pragma once

#include <array>
#include <cmath>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace amm {

/// SplitMix64: used to expand seeds and derive independent streams.
/// Reference: Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(u64 seed) : state_(seed) {}

  [[nodiscard]] constexpr u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, high-quality, 256-bit state.
class Rng {
 public:
  using result_type = u64;

  explicit Rng(u64 seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  /// Derives an independent stream for (master seed, stream index) pairs —
  /// the canonical way to seed per-trial generators.
  static Rng for_stream(u64 master_seed, u64 stream) {
    SplitMix64 sm(master_seed ^ (0x5851f42d4c957f2dULL * (stream + 1)));
    return Rng(sm.next());
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~u64{0}; }

  [[nodiscard]] u64 operator()() { return next(); }

  [[nodiscard]] u64 next() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). Uses the top 53 bits.
  [[nodiscard]] double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound). Lemire's nearly-divisionless method.
  [[nodiscard]] u64 uniform_below(u64 bound) {
    AMM_EXPECTS(bound > 0);
    __extension__ using u128 = unsigned __int128;
    // Rejection sampling on the high multiply keeps the result exactly
    // uniform: a draw is rejected iff the low half is below 2^64 mod bound.
    // That threshold is below bound, so a low half >= bound accepts without
    // the division, and every draw decides exactly as with the threshold.
    u128 m = static_cast<u128>(next()) * bound;
    if (static_cast<u64>(m) < bound) {
      const u64 threshold = (~bound + 1) % bound;  // 2^64 mod bound
      while (static_cast<u64>(m) < threshold) m = static_cast<u128>(next()) * bound;
    }
    return static_cast<u64>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] i64 uniform_int(i64 lo, i64 hi) {
    AMM_EXPECTS(lo <= hi);
    return lo + static_cast<i64>(uniform_below(static_cast<u64>(hi - lo) + 1));
  }

  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with rate `lambda` (mean 1/lambda): inter-arrival times of
  /// the paper's Poisson memory-access process.
  [[nodiscard]] double exponential(double lambda) {
    AMM_EXPECTS(lambda > 0.0);
    double u;
    do {
      u = uniform();
    } while (u <= 0.0);  // guard log(0)
    return -std::log(u) / lambda;
  }

  /// Poisson-distributed count with mean `mu`. Knuth's method for small mu,
  /// normal approximation with continuity correction for large mu (the
  /// experiments only need counts, not exact tail behaviour, above mu≈64).
  [[nodiscard]] u64 poisson(double mu);

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal();

  /// Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    const usize n = c.size();
    for (usize i = n; i > 1; --i) {
      const usize j = static_cast<usize>(uniform_below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<u64, 4> state_{};
};

}  // namespace amm
