/// \file rng.h
/// \brief Deterministic pseudo-random number generation.
///
/// All stochastic code in the library draws from this one generator type so
/// that every experiment is reproducible from a single seed. The engine is
/// xoshiro256++ (Blackman & Vigna), seeded via SplitMix64, which gives
/// high-quality 64-bit output at a few cycles per draw — the MH sampler draws
/// millions of variates per figure.

#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace infoflow {

/// \brief xoshiro256++ engine with distribution helpers.
///
/// Not thread-safe; give each thread (or each experiment repetition) its own
/// instance, e.g. via Split().
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit output.
  std::uint64_t NextU64();

  /// UniformRandomBitGenerator interface (for std::shuffle etc.).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return NextU64(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via the Marsaglia polar method.
  double Normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double Normal(double mean, double sigma);

  /// Gamma(shape, 1) via Marsaglia–Tsang; accepts any shape > 0.
  double Gamma(double shape);

  /// Beta(alpha, beta) via the two-gamma construction.
  double Beta(double alpha, double beta);

  /// Exponential with the given rate (> 0).
  double Exponential(double rate);

  /// Binomial(n, p) — exact; O(n) worst case, inversion for small np.
  std::uint64_t Binomial(std::uint64_t n, double p);

  /// Draws an index from the (unnormalized, non-negative) weight vector.
  /// O(k); the Fenwick tree in fenwick_tree.h provides the O(log k) version.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Derives an independently-seeded child generator; used to hand each
  /// experiment repetition its own stream.
  Rng Split();

 private:
  std::uint64_t s_[4];
  // Cached second variate from the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// \brief 64 independent Bernoulli(p) draws packed into one word.
///
/// Uses the binary-expansion composition: with p = 0.b₁b₂…b₃₂, processing
/// the expansion from its least significant bit upward with
/// `acc = bᵢ ? (acc | r) : (acc & r)` over fresh random words r leaves each
/// bit of `acc` set with probability p (to 2⁻³² precision) — ≤ 32 RNG words
/// for 64 draws instead of 64 uniforms, and usually far fewer since the
/// loop starts at the expansion's lowest set bit. p ≤ 0 and p ≥ 1 draw
/// nothing from `rng`.
std::uint64_t BernoulliWord(double p, Rng& rng);

}  // namespace infoflow
