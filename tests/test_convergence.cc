#include "stats/convergence.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/rng.h"

namespace infoflow {
namespace {

/// `num_chains` independent chains of IID N(mean, 1) draws.
std::vector<std::vector<double>> IidChains(std::size_t num_chains,
                                           std::size_t len, double mean,
                                           std::uint64_t seed) {
  std::vector<std::vector<double>> chains(num_chains);
  Rng rng(seed);
  for (auto& c : chains) {
    Rng local = rng.Split();
    c.reserve(len);
    for (std::size_t i = 0; i < len; ++i) c.push_back(local.Normal(mean, 1.0));
  }
  return chains;
}

/// Stationary AR(1) with coefficient `phi` and unit marginal variance:
/// x_{t+1} = phi·x_t + sqrt(1−phi²)·ε. True ESS of the mean over N draws is
/// N·(1−phi)/(1+phi).
std::vector<std::vector<double>> Ar1Chains(std::size_t num_chains,
                                           std::size_t len, double phi,
                                           std::uint64_t seed) {
  std::vector<std::vector<double>> chains(num_chains);
  Rng rng(seed);
  const double innovation = std::sqrt(1.0 - phi * phi);
  for (auto& c : chains) {
    Rng local = rng.Split();
    c.reserve(len);
    double x = local.Normal();  // stationary start
    for (std::size_t i = 0; i < len; ++i) {
      c.push_back(x);
      x = phi * x + innovation * local.Normal();
    }
  }
  return chains;
}

TEST(Convergence, IidChainsHaveRhatNearOne) {
  const auto chains = IidChains(4, 2000, 0.0, 1);
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_EQ(d.num_chains, 4u);
  EXPECT_EQ(d.samples_per_chain, 2000u);
  EXPECT_GE(d.rhat, 0.99);
  EXPECT_LE(d.rhat, 1.02);
  EXPECT_TRUE(d.Converged());
}

TEST(Convergence, IidChainsHaveFullEffectiveSampleSize) {
  const auto chains = IidChains(4, 2000, 0.0, 2);
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  // IID draws: ESS ~ total draw count (clamped above by it).
  EXPECT_GE(d.ess, 0.5 * 8000.0);
  EXPECT_LE(d.ess, 8000.0);
  // MCSE of a unit-variance mean over ~N independent draws.
  EXPECT_NEAR(d.mcse, 1.0 / std::sqrt(8000.0), 0.6 / std::sqrt(8000.0));
}

TEST(Convergence, Ar1EssMatchesClosedForm) {
  const double phi = 0.7;
  const std::size_t num_chains = 4, len = 5000;
  const auto chains = Ar1Chains(num_chains, len, phi, 3);
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  const double total = static_cast<double>(num_chains * len);
  const double true_ess = total * (1.0 - phi) / (1.0 + phi);
  EXPECT_NEAR(d.ess, true_ess, 0.3 * true_ess);
  // Correlation must not fool R^: the chains share one distribution.
  EXPECT_LT(d.rhat, 1.05);
}

TEST(Convergence, StrongerCorrelationLowersEss) {
  const auto mild = Ar1Chains(4, 4000, 0.3, 4);
  const auto strong = Ar1Chains(4, 4000, 0.9, 4);
  EXPECT_GT(EffectiveSampleSize(mild), 2.0 * EffectiveSampleSize(strong));
}

TEST(Convergence, ShiftedMeansInflateRhat) {
  // Two chains stuck in different modes: the canonical unconverged case.
  auto chains = IidChains(2, 1000, 0.0, 5);
  for (double& x : chains[1]) x += 5.0;
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_GT(d.rhat, 1.5);
  EXPECT_FALSE(d.Converged());
}

TEST(Convergence, WithinChainDriftInflatesRhat) {
  // A single chain whose halves disagree — the reason chains are split.
  std::vector<std::vector<double>> chains = IidChains(1, 2000, 0.0, 6);
  for (std::size_t i = 1000; i < 2000; ++i) chains[0][i] += 5.0;
  EXPECT_GT(SplitChainRhat(chains), 1.5);
}

TEST(Convergence, ConstantChainsAreDegenerateButConverged) {
  const std::vector<std::vector<double>> chains(3,
                                                std::vector<double>(100, 0.4));
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_DOUBLE_EQ(d.mean, 0.4);
  EXPECT_DOUBLE_EQ(d.rhat, 1.0);
  EXPECT_DOUBLE_EQ(d.mcse, 0.0);
  EXPECT_DOUBLE_EQ(d.ess, 300.0);
}

TEST(Convergence, DisagreeingConstantChainsAreInfinitelyUnconverged) {
  const std::vector<std::vector<double>> chains{
      std::vector<double>(100, 0.0), std::vector<double>(100, 1.0)};
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_TRUE(std::isinf(d.rhat));
  EXPECT_FALSE(d.Converged());
}

TEST(Convergence, BinaryChainsAreSupported) {
  // The engine's draws are {0,1} flow indicators; Bernoulli(p) IID chains
  // must look converged with mean ~p.
  std::vector<std::vector<double>> chains(4);
  Rng rng(7);
  for (auto& c : chains) {
    for (int i = 0; i < 3000; ++i) c.push_back(rng.Bernoulli(0.3) ? 1.0 : 0.0);
  }
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_NEAR(d.mean, 0.3, 0.02);
  EXPECT_LT(d.rhat, 1.02);
  EXPECT_NEAR(d.variance, 0.3 * 0.7, 0.02);
  EXPECT_TRUE(d.Converged());
}

TEST(Convergence, UnequalChainLengthsTruncateToShortest) {
  auto chains = IidChains(3, 500, 0.0, 8);
  chains[0].resize(200);
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_EQ(d.samples_per_chain, 200u);
  EXPECT_LE(d.ess, 600.0);
}

TEST(Convergence, SingleChainIsDiagnosable) {
  const auto chains = IidChains(1, 4000, 0.0, 9);
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_LT(d.rhat, 1.03);
  EXPECT_GE(d.ess, 2000.0);
}

TEST(Convergence, TinyChainsFallBackToNoInformationDefaults) {
  const std::vector<std::vector<double>> chains{{0.0, 1.0, 0.5},
                                                {0.5, 0.5, 1.0}};
  const ChainDiagnostics d = ComputeChainDiagnostics(chains);
  EXPECT_DOUBLE_EQ(d.rhat, 1.0);
  EXPECT_DOUBLE_EQ(d.ess, 6.0);
  EXPECT_EQ(d.samples_per_chain, 3u);
}

TEST(Convergence, McseShrinksWithMoreSamples) {
  const auto small = IidChains(4, 500, 0.0, 10);
  const auto large = IidChains(4, 8000, 0.0, 10);
  EXPECT_GT(ComputeChainDiagnostics(small).mcse,
            2.0 * ComputeChainDiagnostics(large).mcse);
}

TEST(Convergence, AutocovarianceMatchesDefinition) {
  const std::vector<double> chain{1.0, 2.0, 3.0, 4.0};
  // mean 2.5; lag-1: ((1-2.5)(2-2.5)+(2-2.5)(3-2.5)+(3-2.5)(4-2.5))/4
  EXPECT_NEAR(AutocovarianceAtLag(chain, 1), (0.75 - 0.25 + 0.75) / 4.0,
              1e-12);
  EXPECT_NEAR(AutocovarianceAtLag(chain, 0), 5.0 / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(AutocovarianceAtLag(chain, 4), 0.0);
}

TEST(Convergence, ToStringMentionsAllThreeStatistics) {
  const auto chains = IidChains(2, 100, 0.0, 11);
  const std::string s = ComputeChainDiagnostics(chains).ToString();
  EXPECT_NE(s.find("R^="), std::string::npos);
  EXPECT_NE(s.find("ESS="), std::string::npos);
  EXPECT_NE(s.find("MCSE="), std::string::npos);
}

/// Counts of `chains` as BinaryCountDiagnostics takes them: each chain
/// truncated to an even length and split in half, as ComputeChainDiagnostics
/// splits it.
std::vector<HalfCount> Halves(const std::vector<std::vector<double>>& chains) {
  std::vector<HalfCount> halves;
  for (const auto& c : chains) {
    const std::size_t h = c.size() / 2;
    for (std::size_t part = 0; part < 2; ++part) {
      HalfCount half{h, 0};
      for (std::size_t i = part * h; i < (part + 1) * h; ++i) {
        if (c[i] != 0.0) ++half.ones;
      }
      halves.push_back(half);
    }
  }
  return halves;
}

TEST(Convergence, BinaryCountsMatchChainDiagnosticsOnEqualStreams) {
  // Independent 0/1 streams of equal (even and odd) length, some mixing
  // and some with one stream shifted: the count-only diagnostics give the
  // pooled value of the draws, the binomial MCSE and ESS, and the split-R̂
  // of ComputeChainDiagnostics.
  Rng rng(5);
  for (const std::size_t len : {4u, 9u, 64u, 401u}) {
    for (const double shift : {0.0, 0.3}) {
      std::vector<std::vector<double>> chains(4);
      std::size_t ones = 0;
      for (std::size_t k = 0; k < chains.size(); ++k) {
        const double p = 0.35 + (k == 0 ? shift : 0.0);
        for (std::size_t i = 0; i < len; ++i) {
          chains[k].push_back(rng.Bernoulli(p) ? 1.0 : 0.0);
          if (chains[k].back() != 0.0) ++ones;
        }
      }
      const std::size_t total = 4 * len;
      const ChainDiagnostics counted =
          BinaryCountDiagnostics(ones, total, Halves(chains));
      const ChainDiagnostics reference = ComputeChainDiagnostics(chains);
      double sum = 0.0;
      for (const auto& c : chains) {
        for (const double d : c) sum += d;
      }
      EXPECT_EQ(counted.mean, sum / static_cast<double>(total)) << len;
      EXPECT_EQ(counted.ess, static_cast<double>(total));
      EXPECT_DOUBLE_EQ(counted.mcse,
                       std::sqrt(counted.mean * (1.0 - counted.mean) /
                                 static_cast<double>(total)));
      EXPECT_NEAR(counted.rhat, reference.rhat, 1e-12)
          << "len " << len << " shift " << shift;
      EXPECT_NEAR(counted.rhat, SplitChainRhat(chains), 1e-12);
      EXPECT_EQ(counted.num_chains, 4u);
      EXPECT_EQ(counted.samples_per_chain, reference.samples_per_chain);
      if (len % 2 == 0) {
        EXPECT_NEAR(counted.mean, reference.mean, 1e-15);
      }
    }
  }
}

TEST(Convergence, BinaryCountsHandleDegenerateHalves) {
  // All zeros: no variance anywhere, R̂ = 1 and MCSE = 0.
  const ChainDiagnostics zeros =
      BinaryCountDiagnostics(0, 40, {{10, 0}, {10, 0}, {10, 0}, {10, 0}});
  EXPECT_EQ(zeros.rhat, 1.0);
  EXPECT_EQ(zeros.mcse, 0.0);
  // Halves constant but disagreeing: maximal non-convergence.
  const ChainDiagnostics split =
      BinaryCountDiagnostics(20, 40, {{10, 10}, {10, 10}, {10, 0}, {10, 0}});
  EXPECT_TRUE(std::isinf(split.rhat));
  // Halves of fewer than 2 draws carry no split information; a stream
  // with no draws at all is not counted.
  const ChainDiagnostics thin =
      BinaryCountDiagnostics(1, 3, {{1, 1}, {1, 0}, {0, 0}, {0, 0}});
  EXPECT_EQ(thin.rhat, 1.0);
  EXPECT_EQ(thin.num_chains, 1u);
  EXPECT_DOUBLE_EQ(thin.mean, 1.0 / 3.0);
  // Unequal halves enter with their own sizes and stay finite.
  const ChainDiagnostics unequal =
      BinaryCountDiagnostics(9, 30, {{5, 2}, {5, 1}, {10, 3}, {10, 3}});
  EXPECT_TRUE(std::isfinite(unequal.rhat));
  EXPECT_GT(unequal.rhat, 0.0);
}

}  // namespace
}  // namespace infoflow
