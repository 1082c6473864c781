#include "stats/rng.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.h"

namespace infoflow {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextDouble());
  EXPECT_NEAR(stats.Mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.Variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBounded(7), 7u);
}

TEST(Rng, NextBoundedRoughlyUniform) {
  Rng rng(5);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(2);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliWordLaneFrequencies) {
  // Every lane of a BernoulliWord fires with probability p, including p
  // with a long binary expansion and p near 0 or 1.
  Rng rng(4);
  for (const double p : {0.3, 0.02, 0.97, 1.0 / 3.0}) {
    std::uint64_t lane_hits[64] = {};
    const int words = 20000;
    for (int i = 0; i < words; ++i) {
      const std::uint64_t w = BernoulliWord(p, rng);
      for (int l = 0; l < 64; ++l) lane_hits[l] += (w >> l) & 1;
    }
    double total = 0.0;
    for (const std::uint64_t h : lane_hits) total += static_cast<double>(h);
    EXPECT_NEAR(total / (64.0 * words), p, 0.003) << p;
    for (const std::uint64_t h : lane_hits) {
      EXPECT_NEAR(static_cast<double>(h) / words, p, 0.02) << p;
    }
  }
}

TEST(Rng, BernoulliWordEdgeProbabilities) {
  Rng rng(5);
  Rng untouched(5);
  EXPECT_EQ(BernoulliWord(0.0, rng), 0u);
  EXPECT_EQ(BernoulliWord(-0.5, rng), 0u);
  EXPECT_EQ(BernoulliWord(1.0, rng), ~std::uint64_t{0});
  EXPECT_EQ(BernoulliWord(1e-12, rng), 0u);
  // p within 2^-33 of 1 is 1 at the expansion's 32-bit precision; it must
  // not wrap to an always-inactive edge.
  EXPECT_EQ(BernoulliWord(1.0 - 1e-12, rng), ~std::uint64_t{0});
  // None of these draws from the generator.
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.Variance(), 1.0, 0.03);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(4);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.05);
}

TEST(Rng, GammaMomentsLargeShape) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Gamma(4.0));
  EXPECT_NEAR(stats.Mean(), 4.0, 0.1);
  EXPECT_NEAR(stats.Variance(), 4.0, 0.2);
}

TEST(Rng, GammaMomentsSmallShape) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Gamma(0.5));
  EXPECT_NEAR(stats.Mean(), 0.5, 0.05);
  EXPECT_NEAR(stats.Variance(), 0.5, 0.1);
}

TEST(Rng, BetaMoments) {
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Beta(2.0, 8.0));
  EXPECT_NEAR(stats.Mean(), 0.2, 0.01);
  // Var = ab/((a+b)^2(a+b+1)) = 16/(100*11)
  EXPECT_NEAR(stats.Variance(), 16.0 / 1100.0, 0.002);
}

TEST(Rng, BetaStaysInUnitInterval) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Beta(0.5, 0.5);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.Mean(), 0.5, 0.01);
}

TEST(Rng, BinomialBoundaries) {
  Rng rng(16);
  EXPECT_EQ(rng.Binomial(10, 0.0), 0u);
  EXPECT_EQ(rng.Binomial(10, 1.0), 10u);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0u);
}

TEST(Rng, BinomialMoments) {
  Rng rng(18);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.Add(static_cast<double>(rng.Binomial(40, 0.3)));
  }
  EXPECT_NEAR(stats.Mean(), 12.0, 0.1);
  EXPECT_NEAR(stats.Variance(), 40 * 0.3 * 0.7, 0.3);
}

TEST(Rng, BinomialLargeNp) {
  Rng rng(20);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(rng.Binomial(200, 0.4)));
  }
  EXPECT_NEAR(stats.Mean(), 80.0, 0.5);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(22);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(30);
  Rng child = parent.Split();
  // The child stream should not track the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent.NextU64() == child.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StdShuffleCompatible) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5};
  std::shuffle(v.begin(), v.end(), rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace infoflow
