#include "stats/convergence.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/check.h"

namespace infoflow {
namespace {

/// A view over one split half of a chain.
struct Sequence {
  const double* data;
  std::size_t len;
};

double SeqMean(const Sequence& s) {
  double total = 0.0;
  for (std::size_t i = 0; i < s.len; ++i) total += s.data[i];
  return total / static_cast<double>(s.len);
}

/// Unbiased (n−1) sample variance; 0 when fewer than 2 values.
double SeqVariance(const Sequence& s, double mean) {
  if (s.len < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < s.len; ++i) {
    const double d = s.data[i] - mean;
    total += d * d;
  }
  return total / static_cast<double>(s.len - 1);
}

/// Biased (divisor-n) autocovariance at `lag` around the given mean.
double Autocov(const double* x, std::size_t n, std::size_t lag, double mean) {
  if (lag >= n) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    total += (x[i] - mean) * (x[i + lag] - mean);
  }
  return total / static_cast<double>(n);
}

/// Shortest chain length across `chains` (every chain must be non-empty).
std::size_t MinLength(const std::vector<std::vector<double>>& chains) {
  IF_CHECK(!chains.empty()) << "diagnostics need at least one chain";
  std::size_t n = std::numeric_limits<std::size_t>::max();
  for (const auto& c : chains) {
    IF_CHECK(!c.empty()) << "diagnostics need non-empty chains";
    n = std::min(n, c.size());
  }
  return n;
}

/// Guard against quadratic blow-up on pathological never-decaying chains:
/// past this many lags the ESS is effectively 0 anyway.
constexpr std::size_t kMaxEssLags = 4096;

}  // namespace

bool ChainDiagnostics::Converged(double max_rhat, double min_ess) const {
  return std::isfinite(rhat) && rhat <= max_rhat && ess >= min_ess;
}

std::string ChainDiagnostics::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "R^=%.3f ESS=%.1f MCSE=%.5f (%zu chains x %zu)",
                rhat, ess, mcse, num_chains, samples_per_chain);
  return buf;
}

ChainDiagnostics ComputeChainDiagnostics(
    const std::vector<std::vector<double>>& chains) {
  ChainDiagnostics d;
  d.num_chains = chains.size();
  const std::size_t min_len = MinLength(chains);

  if (min_len < 4) {
    // Too short to split: pool everything, report no-information defaults.
    d.samples_per_chain = min_len;
    const double total_count =
        static_cast<double>(chains.size()) * static_cast<double>(min_len);
    double total = 0.0;
    for (const auto& c : chains) {
      for (std::size_t i = 0; i < min_len; ++i) total += c[i];
    }
    d.mean = total / total_count;
    double ss = 0.0;
    for (const auto& c : chains) {
      for (std::size_t i = 0; i < min_len; ++i) {
        const double diff = c[i] - d.mean;
        ss += diff * diff;
      }
    }
    d.variance = total_count > 1.0 ? ss / (total_count - 1.0) : 0.0;
    d.rhat = 1.0;
    d.ess = total_count;
    d.mcse = std::sqrt(d.variance / total_count);
    return d;
  }

  // Truncate to an even common length and split every chain in half.
  const std::size_t n = min_len - (min_len % 2);
  const std::size_t half = n / 2;
  d.samples_per_chain = n;
  std::vector<Sequence> seqs;
  seqs.reserve(2 * chains.size());
  for (const auto& c : chains) {
    seqs.push_back({c.data(), half});
    seqs.push_back({c.data() + half, half});
  }
  const std::size_t m = seqs.size();
  const double md = static_cast<double>(m);
  const double ld = static_cast<double>(half);

  std::vector<double> means(m), vars(m);
  for (std::size_t s = 0; s < m; ++s) {
    means[s] = SeqMean(seqs[s]);
    vars[s] = SeqVariance(seqs[s], means[s]);
  }
  double grand = 0.0;
  for (double mu : means) grand += mu;
  grand /= md;
  double w = 0.0;
  for (double v : vars) w += v;
  w /= md;
  double b_over_l = 0.0;  // B/L: unbiased variance of the sequence means
  for (double mu : means) b_over_l += (mu - grand) * (mu - grand);
  b_over_l /= (md - 1.0);
  const double var_plus = (ld - 1.0) / ld * w + b_over_l;

  d.mean = grand;
  d.variance = var_plus;
  const double total_draws = md * ld;

  // Degeneracy threshold: accumulated rounding error of summing ~l values
  // of magnitude |grand| shows up as spurious variance of order ε²·mean².
  const double tiny = 1e-20 * (grand * grand + 1.0);
  if (w <= tiny) {
    if (b_over_l <= tiny) {
      // All draws identical: a frozen-but-agreeing ensemble. No MC error.
      d.rhat = 1.0;
      d.ess = total_draws;
      d.mcse = 0.0;
    } else {
      // Sequences are internally constant yet disagree: maximal
      // non-convergence, one independent value per sequence.
      d.rhat = std::numeric_limits<double>::infinity();
      d.ess = md;
      d.mcse = std::sqrt(var_plus / md);
    }
    return d;
  }

  d.rhat = std::sqrt(var_plus / w);

  // Combined-chain autocorrelations (Vehtari et al. 2021):
  //   ρ̂_t = 1 − (W − mean_s acov_s(t)) / var̂⁺
  // summed in Geyer initial-positive monotone pairs.
  const std::size_t max_lag = std::min(half - 1, kMaxEssLags);
  auto rho_at = [&](std::size_t t) {
    double acov = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      acov += Autocov(seqs[s].data, seqs[s].len, t, means[s]);
    }
    acov /= md;
    return 1.0 - (w - acov) / var_plus;
  };
  double tau = -1.0;
  double prev_pair = std::numeric_limits<double>::max();
  for (std::size_t t = 0; t <= max_lag; t += 2) {
    double pair = rho_at(t) + (t + 1 <= max_lag ? rho_at(t + 1) : 0.0);
    if (!(pair > 0.0)) break;
    pair = std::min(pair, prev_pair);  // enforce monotone decrease
    prev_pair = pair;
    tau += 2.0 * pair;
  }
  tau = std::max(tau, total_draws / (total_draws + 1.0));  // cap ESS ≤ N+1
  d.ess = std::min(total_draws, total_draws / tau);
  d.mcse = std::sqrt(var_plus / d.ess);
  return d;
}

ChainDiagnostics BinaryCountDiagnostics(std::size_t ones, std::size_t total,
                                        const std::vector<HalfCount>& halves) {
  IF_CHECK(total > 0) << "diagnostics need at least one draw";
  IF_CHECK(ones <= total) << ones << " ones among " << total << " draws";
  IF_CHECK(halves.size() % 2 == 0) << "halves come in pairs per stream";
  ChainDiagnostics d;
  const double n = static_cast<double>(total);
  d.mean = static_cast<double>(ones) / n;
  d.variance = d.mean * (1.0 - d.mean);
  d.ess = n;
  d.mcse = std::sqrt(d.variance / n);
  std::size_t min_half = std::numeric_limits<std::size_t>::max();
  for (std::size_t k = 0; k < halves.size(); k += 2) {
    if (halves[k].draws + halves[k + 1].draws == 0) continue;
    ++d.num_chains;
    min_half = std::min(min_half, halves[k].draws);
  }
  d.samples_per_chain = d.num_chains > 0 ? 2 * min_half : 0;

  // The split-R̂ of ComputeChainDiagnostics, with each half's mean and
  // unbiased variance in closed form: c ones among l draws have mean c/l
  // and variance c(l−c)/(l(l−1)).
  const auto usable = [](const HalfCount& h) { return h.draws >= 2; };
  const auto mean_of = [](const HalfCount& h) {
    return static_cast<double>(h.ones) / static_cast<double>(h.draws);
  };
  double md = 0.0;
  double draws = 0.0;
  double grand = 0.0;
  double w = 0.0;
  for (const HalfCount& h : halves) {
    if (!usable(h)) continue;
    const double l = static_cast<double>(h.draws);
    const double c = static_cast<double>(h.ones);
    md += 1.0;
    draws += l;
    grand += mean_of(h);
    w += c * (l - c) / (l * (l - 1.0));
  }
  if (md < 2.0) return d;
  const double ld = draws / md;
  grand /= md;
  w /= md;
  double b_over_l = 0.0;
  for (const HalfCount& h : halves) {
    if (usable(h)) b_over_l += (mean_of(h) - grand) * (mean_of(h) - grand);
  }
  b_over_l /= (md - 1.0);
  const double var_plus = (ld - 1.0) / ld * w + b_over_l;
  const double tiny = 1e-20 * (grand * grand + 1.0);
  if (w <= tiny) {
    d.rhat = b_over_l <= tiny ? 1.0 : std::numeric_limits<double>::infinity();
    return d;
  }
  d.rhat = std::sqrt(var_plus / w);
  return d;
}

double SplitChainRhat(const std::vector<std::vector<double>>& chains) {
  return ComputeChainDiagnostics(chains).rhat;
}

double EffectiveSampleSize(const std::vector<std::vector<double>>& chains) {
  return ComputeChainDiagnostics(chains).ess;
}

double AutocovarianceAtLag(const std::vector<double>& chain, std::size_t lag) {
  IF_CHECK(!chain.empty()) << "autocovariance of an empty chain";
  const Sequence s{chain.data(), chain.size()};
  return Autocov(s.data, s.len, lag, SeqMean(s));
}

}  // namespace infoflow
