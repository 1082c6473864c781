#include "stats/rng.h"

#include <bit>
#include <cmath>

namespace infoflow {

namespace {

inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  IF_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  IF_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    std::uint64_t threshold = (0ULL - bound) % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  IF_DCHECK(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi - lo < 2^63, safe
  return lo + static_cast<std::int64_t>(NextBounded(span));
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double sigma) {
  IF_DCHECK(sigma >= 0.0);
  return mean + sigma * Normal();
}

double Rng::Gamma(double shape) {
  IF_CHECK(shape > 0.0) << "Gamma shape must be positive, got " << shape;
  if (shape < 1.0) {
    // Boost to shape+1 then apply the shape<1 correction (Marsaglia–Tsang).
    const double u = NextDouble();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x, v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = NextDouble();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Beta(double alpha, double beta) {
  IF_CHECK(alpha > 0.0 && beta > 0.0)
      << "Beta parameters must be positive: alpha=" << alpha
      << " beta=" << beta;
  const double x = Gamma(alpha);
  const double y = Gamma(beta);
  const double sum = x + y;
  if (sum == 0.0) return 0.5;  // both underflowed; symmetric fallback
  return x / sum;
}

double Rng::Exponential(double rate) {
  IF_DCHECK(rate > 0.0);
  // 1 - NextDouble() is in (0, 1], so the log is finite.
  return -std::log(1.0 - NextDouble()) / rate;
}

std::uint64_t Rng::Binomial(std::uint64_t n, double p) {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return n;
  // Work with p <= 1/2 for numerical stability of the inversion loop.
  if (p > 0.5) return n - Binomial(n, 1.0 - p);
  const double np = static_cast<double>(n) * p;
  if (np < 30.0) {
    // Inversion by sequential search over the CDF: O(np) expected.
    const double q = 1.0 - p;
    const double s = p / q;
    double f = std::pow(q, static_cast<double>(n));  // P(X = 0)
    double u = NextDouble();
    std::uint64_t k = 0;
    while (u > f && k < n) {
      u -= f;
      ++k;
      f *= s * static_cast<double>(n - k + 1) / static_cast<double>(k);
    }
    return k;
  }
  // Large np: exact but O(n) Bernoulli counting (our workloads keep n modest
  // when np is large, so this stays cheap in practice).
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < n; ++i) count += Bernoulli(p) ? 1u : 0u;
  return count;
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  IF_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    IF_DCHECK(w >= 0.0);
    total += w;
  }
  IF_CHECK(total > 0.0) << "Categorical weights sum to zero";
  double target = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point slack
}

Rng Rng::Split() { return Rng(NextU64() ^ 0xa5a5a5a55a5a5a5aULL); }

std::uint64_t BernoulliWord(double p, Rng& rng) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  // p within 2⁻³³ of 1 rounds to 2³², which does not fit the 32-bit
  // expansion; it is 1 to the expansion's precision.
  const auto scaled = static_cast<std::uint64_t>(
      std::llround(std::ldexp(p, 32)));
  if (scaled >> 32 != 0) return ~std::uint64_t{0};
  const auto m = static_cast<std::uint32_t>(scaled);
  if (m == 0) return 0;
  std::uint64_t acc = 0;
  for (int i = std::countr_zero(m); i < 32; ++i) {
    const std::uint64_t r = rng.NextU64();
    acc = ((m >> i) & 1) != 0 ? (acc | r) : (acc & r);
  }
  return acc;
}

}  // namespace infoflow
