/// \file convergence.h
/// \brief Cross-chain MCMC convergence diagnostics: split-chain Gelman–Rubin
/// R̂, autocorrelation-based effective sample size, and Monte-Carlo standard
/// error.
///
/// The MH sampler of §III draws *correlated* pseudo-states, so a fixed
/// retained-sample count says nothing about estimator quality on its own.
/// When several independent chains target the same stationary distribution
/// (see core/multi_chain.h), their agreement is measurable:
///
///  - **Split-chain R̂** (potential scale reduction factor): every chain is
///    split in half, and R̂² = var̂⁺ / W compares the pooled-variance
///    estimate var̂⁺ = (L−1)/L · W + B/L against the mean within-sequence
///    variance W. Chains that have not yet mixed across the state space
///    (or that drift within themselves — the reason for splitting) have
///    between-sequence variance B ≫ 0 and R̂ well above 1; at convergence
///    R̂ → 1 from above.
///  - **ESS**: the number of independent draws carrying the same estimator
///    information as the N correlated ones, N / (1 + 2 Σ_t ρ̂_t), with the
///    combined-chain autocorrelations ρ̂_t truncated by Geyer's initial
///    monotone positive-pair sequence.
///  - **MCSE**: sqrt(var̂⁺ / ESS) — the ±1σ Monte-Carlo error of the pooled
///    mean, the number callers should compare tolerances against.
///
/// All functions accept one vector of retained draws per chain. Chains may
/// have unequal lengths; every chain is truncated to the shortest (and to an
/// even length) so the split sequences stay comparable. The draws are
/// typically {0,1} flow indicators — binary chains are fully supported.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace infoflow {

/// \brief Convergence summary of a multi-chain (or single-chain) run.
struct ChainDiagnostics {
  /// Pooled mean of the (truncated) chains — the merged estimate.
  double mean = 0.0;
  /// Pooled variance estimate var̂⁺ (the R̂ numerator).
  double variance = 0.0;
  /// Split-chain potential scale reduction factor; ~1 at convergence.
  /// +inf when sequences disagree but have no within-sequence variance.
  double rhat = 1.0;
  /// Effective sample size across all chains (≤ total draws by clamping).
  double ess = 0.0;
  /// Monte-Carlo standard error of `mean`: sqrt(variance / ess).
  double mcse = 0.0;
  /// Number of chains the diagnostics were computed over.
  std::size_t num_chains = 0;
  /// Per-chain length after truncation to the shortest chain.
  std::size_t samples_per_chain = 0;

  /// Conventional acceptance test: R̂ below `max_rhat` (default 1.05) and
  /// at least `min_ess` effective draws.
  bool Converged(double max_rhat = 1.05, double min_ess = 100.0) const;

  /// "R̂=1.002 ESS=3521.4 MCSE=0.0081 (4 chains x 1000)".
  std::string ToString() const;
};

/// \brief Computes mean, var̂⁺, split-R̂, ESS and MCSE for the given chains
/// (one vector of draws per chain; all chains must be non-empty).
///
/// Degenerate inputs are well-defined: constant chains report R̂ = 1,
/// ESS = total draw count and MCSE = 0; chains shorter than 4 draws carry
/// no split information and report R̂ = 1 with ESS = total count.
ChainDiagnostics ComputeChainDiagnostics(
    const std::vector<std::vector<double>>& chains);

/// \brief One split-R̂ half of a stream of 0/1 draws, by its counts alone.
struct HalfCount {
  /// Draws in the half.
  std::size_t draws = 0;
  /// Draws equal to 1.
  std::size_t ones = 0;
};

/// \brief Diagnostics of `total` independent 0/1 draws, `ones` of them 1,
/// from counts alone.
///
/// For i.i.d. draws the estimator needs no autocorrelation scan: mean =
/// p̂ = ones/total, variance = p̂(1−p̂), ESS = total and MCSE =
/// sqrt(p̂(1−p̂)/total), the binomial standard error. R̂ is
/// ComputeChainDiagnostics's split-R̂ over `halves` — two entries per
/// stream, its first half then its second. When every half holds the same
/// number of draws it equals SplitChainRhat of the streams (truncated to
/// an even length and split by draw order). Halves of unequal size enter
/// with their own sizes; halves of fewer than 2 draws carry no variance
/// and are skipped, and fewer than 2 usable halves report R̂ = 1.
/// `num_chains` counts the streams with at least one draw.
ChainDiagnostics BinaryCountDiagnostics(std::size_t ones, std::size_t total,
                                        const std::vector<HalfCount>& halves);

/// \brief Split-chain Gelman–Rubin R̂ alone (see ComputeChainDiagnostics).
double SplitChainRhat(const std::vector<std::vector<double>>& chains);

/// \brief Combined-chain effective sample size alone.
double EffectiveSampleSize(const std::vector<std::vector<double>>& chains);

/// \brief Biased (divisor-n) autocovariance of one chain at `lag`;
/// building block of the ESS estimate, exposed for tests.
double AutocovarianceAtLag(const std::vector<double>& chain, std::size_t lag);

}  // namespace infoflow
