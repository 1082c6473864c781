/// \file mh_sampler.h
/// \brief Metropolis–Hastings pseudo-state sampling (§III, Algorithm 1).
///
/// The chain walks the space X = {0,1}^m of pseudo-states. A proposal flips
/// exactly one edge; the flipped edge is drawn from a multinomial whose
/// weights are q_i = p_i^{x_i} (1 − p_i)^{1−x_i} — i.e. an edge is proposed
/// with probability proportional to the probability of its *resulting*
/// activity (§III-C). The weights live in a Fenwick tree, so drawing and
/// re-weighing after an accepted flip are both O(log m), and the
/// normalization constant Z is maintained incrementally (the paper's
/// Z' = Z + (−1)^{x_i} (1 − 2 p_i) identity).
///
/// For a proposed flip of edge i, let w_fwd be i's proposal weight in x
/// (the probability of the activity the flip produces) and w_bwd the weight
/// of the reverse flip in x'. Flipping i changes exactly one factor of
/// Eq. 3 from w_bwd to w_fwd, so
///   p_ratio = Pr[x'|M] / Pr[x|M]          = w_fwd / w_bwd
///   q_ratio = q(x'|x) / q(x|x')           = (w_fwd/Z) / (w_bwd/Z')
///                                         = (w_fwd/w_bwd) · (Z'/Z)
///   accept  = min(p_ratio / q_ratio, 1)   = min(Z / Z', 1)
/// — the proposal's bias toward probable flips cancels the density ratio,
/// leaving only the normalizer correction.
///
/// Flow conditions C enter through the indicator I(x, C) (Eq. 7/8): the
/// chain is initialized inside the admissible set and any candidate that
/// violates C has acceptance probability zero.
///
/// Burn-in discards the first δ states; thinning keeps every (δ′+1)-th
/// state afterwards (§III-B).

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/flow_query.h"
#include "core/icm.h"
#include "obs/metrics.h"
#include "stats/fenwick_tree.h"
#include "stats/rng.h"
#include "util/status.h"

namespace infoflow {

/// \brief Tuning knobs for the chain.
struct MhOptions {
  /// δ: states discarded before the first sample.
  std::size_t burn_in = 1000;
  /// δ′: states discarded between consecutive samples.
  std::size_t thinning = 10;
  /// Attempts at drawing an initial state satisfying the conditions from
  /// the marginal before falling back to constructive repair.
  std::size_t init_rejection_tries = 256;
  /// Ablation switch: pick the flipped edge uniformly instead of from the
  /// §III-C probability-weighted multinomial (the acceptance test then
  /// carries the full density ratio). Same stationary distribution, poorer
  /// mixing — bench/ablation_proposal quantifies the gap.
  bool uniform_proposal = false;

  /// Validates the option values.
  Status Validate() const;
};

/// \brief A Metropolis–Hastings pseudo-state chain over one point ICM.
///
/// \code
///   auto sampler = MhSampler::Create(model, /*conditions=*/{}, MhOptions{},
///                                    Rng(42));
///   double p = sampler->EstimateFlowProbability(u, v, 4000);
/// \endcode
///
/// The sampler stores its own copy of the model (a PointIcm shares the
/// graph and copies only the probability vector), so temporaries like
/// `beta_icm.ExpectedIcm()` are safe to pass.
class MhSampler {
 public:
  /// \brief Builds a sampler whose stationary distribution is
  /// Pr[x | M, C]. Fails when the conditions are invalid or no admissible
  /// initial state could be constructed (e.g. contradictory C).
  static Result<MhSampler> Create(PointIcm model, FlowConditions conditions,
                                  MhOptions options, Rng rng);

  /// Performs one Markov-chain transition (Algorithm 1). Returns true when
  /// the candidate was accepted.
  bool Step();

  /// \brief Advances the chain to the next retained sample: the first call
  /// runs the burn-in, subsequent calls run δ′+1 steps. Returns the current
  /// pseudo-state (valid until the next call).
  const PseudoState& NextSample();

  /// \brief Estimate Pr[source ⤳ sink | M, C] from `num_samples` retained
  /// samples (Eq. 5).
  double EstimateFlowProbability(NodeId source, NodeId sink,
                                 std::size_t num_samples);

  /// \brief Estimate, in one pass, Pr[source ⤳ sink_j | M, C] for every
  /// sink (source-to-community flow).
  std::vector<double> EstimateCommunityFlow(NodeId source,
                                            const std::vector<NodeId>& sinks,
                                            std::size_t num_samples);

  /// \brief Multi-source variant: Pr[∃ s ∈ sources: s ⤳ sink_j | M, C] for
  /// every sink. Used when the external world (omnipotent node, §V-D) is a
  /// standing co-source alongside a user.
  std::vector<double> EstimateCommunityFlowMulti(
      const std::vector<NodeId>& sources, const std::vector<NodeId>& sinks,
      std::size_t num_samples);

  /// \brief Estimate the probability that *all* the given flows hold
  /// jointly in one state.
  double EstimateJointFlowProbability(const FlowConditions& flows,
                                      std::size_t num_samples);

  /// \brief Estimate the dispersion of a source: the distribution of the
  /// number of non-source nodes its information reaches. Returns one count
  /// per retained sample.
  std::vector<std::uint32_t> SampleDispersion(NodeId source,
                                              std::size_t num_samples);

  /// Current pseudo-state (mostly for tests).
  const PseudoState& state() const { return state_; }

  /// The sampler's own model copy (the multi-chain engine shares its graph).
  const PointIcm& model() const { return model_; }

  /// Incremental normalizer Z of the proposal multinomial (for tests of the
  /// Z-update identity).
  double proposal_normalizer() const { return weights_.Total(); }

  /// Chain diagnostics: transitions attempted / accepted so far.
  std::uint64_t steps_taken() const { return steps_; }
  std::uint64_t steps_accepted() const { return accepted_; }

  /// Fraction of attempted transitions accepted; 0 before any attempt (the
  /// 0/0 case a caller would otherwise hit right after Create or Reseed).
  double acceptance_rate() const {
    return steps_ == 0 ? 0.0
                       : static_cast<double>(accepted_) /
                             static_cast<double>(steps_);
  }

  /// \brief Drains any step/flip aggregates not yet published to the global
  /// metrics registry. NextSample publishes every kPublishInterval-th
  /// retained sample to amortize registry traffic; call this before reading
  /// the registry when exact counts matter. No-op under INFOFLOW_NO_METRICS
  /// and when nothing is pending. The Estimate* methods and the multi-chain
  /// engine flush automatically at their boundaries.
  void FlushMetrics();

  /// \brief Restarts the chain's diagnostics on a fresh RNG stream: installs
  /// `rng`, zeroes the attempted/accepted counters and the local metric
  /// aggregates, and clears the burn-in flag so the next NextSample()
  /// re-runs burn-in. The current pseudo-state is kept — it satisfies the
  /// conditions, so the re-burned chain starts from an admissible point and
  /// multi-run diagnostics are not polluted by the previous run's counts.
  void Reseed(Rng rng);

 private:
  MhSampler(PointIcm model, FlowConditions conditions, MhOptions options,
            Rng rng, PseudoState init);

  /// Proposal weight of flipping edge e out of activity `active`.
  double FlipWeight(EdgeId e, bool currently_active) const;

  /// Finds an initial state with I(x, C) = 1 (rejection, then repair).
  static Result<PseudoState> FindInitialState(const PointIcm& model,
                                              const FlowConditions& conditions,
                                              const MhOptions& options,
                                              Rng& rng);

  /// Buckets of the flip-index histogram: one per bit-width of the flipped
  /// edge id (0..32), i.e. registry bounds {0, 1, ..., 32} plus overflow.
  static constexpr std::size_t kFlipBuckets = 34;

  /// Retained samples aggregated locally between registry publishes.
  static constexpr std::uint32_t kPublishInterval = 16;

  /// Publishes the pending step/acceptance deltas plus the locally
  /// aggregated flip-index buckets to the global registry — called every
  /// kPublishInterval-th NextSample() (and from FlushMetrics) so the
  /// per-step fast path never touches shared cells and the per-sample path
  /// rarely does.
  void PublishStepStats();

  PointIcm model_;
  FlowConditions conditions_;
  MhOptions options_;
  Rng rng_;
  PseudoState state_;
  FenwickTree weights_;
  ReachabilityWorkspace workspace_;
  bool burned_in_ = false;
  std::uint64_t steps_ = 0;
  std::uint64_t accepted_ = 0;

  /// Registry handles (inert stubs under INFOFLOW_NO_METRICS); stable for
  /// the process lifetime, so copying the sampler copies the pointers.
  obs::Counter* metric_steps_burnin_;
  obs::Counter* metric_steps_retained_;
  obs::Counter* metric_steps_accepted_;
  obs::Counter* metric_samples_retained_;
  obs::Histogram* metric_flip_index_;
  obs::Histogram* metric_fenwick_ns_;
  /// Per-step flip-index aggregate (1-in-8 sampled), drained and scaled
  /// back to step units by PublishStepStats.
  std::array<std::uint64_t, kFlipBuckets> flip_counts_{};
  std::uint64_t published_accepted_ = 0;
  /// Publish calls so far; throttles the Fenwick latency probe.
  std::uint64_t publishes_ = 0;
  /// Steps/samples accumulated since the last publish.
  std::uint64_t pending_burnin_steps_ = 0;
  std::uint64_t pending_retained_steps_ = 0;
  std::uint32_t pending_samples_ = 0;
};

}  // namespace infoflow
