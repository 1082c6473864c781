/// \file multi_chain.h
/// \brief Parallel multi-chain Metropolis–Hastings estimation engine.
///
/// A single MhSampler chain (§III, Algorithm 1) is inherently serial: each
/// transition depends on the previous state. Throughput therefore scales by
/// running K *independent* chains — same model, same conditions, disjoint
/// RNG streams — and pooling their retained samples. Independent chains buy
/// two things at once:
///
///  1. **Parallel throughput.** Each chain runs on its own worker of the
///     shared ThreadPool; K chains on K cores draw retained samples ~K×
///     faster than one chain (each chain pays its own burn-in once, on its
///     first estimate).
///  2. **Convergence evidence.** Chains started from independent initial
///     states that agree are the standard MCMC convergence check: every
///     estimate carries a ChainDiagnostics (split-chain R̂, effective sample
///     size, Monte-Carlo standard error — see stats/convergence.h) computed
///     from the per-chain draw sequences, so callers can *assert* that an
///     estimate converged instead of trusting a fixed sample count.
///
/// ## Seed-derivation contract
///
/// Chain k's generator is `Rng(DeriveChainSeed(seed, k))` where
/// `DeriveChainSeed` applies a SplitMix64 finalizer to
/// `seed + (k+1)·0x9e3779b97f4a7c15` (the golden-ratio increment). The
/// contract callers may rely on:
///
///  - the stream of chain k depends only on (seed, k) — not on K, the
///    thread-pool size, or scheduling order;
///  - hence a fixed seed yields bit-identical merged estimates and
///    diagnostics for *any* `num_threads`, and chains 0..K−1 of a K-chain
///    run are a prefix of the chains of a (K+1)-chain run.
///
/// Sample counts: a request for N retained samples is rounded up to
/// ⌈N/K⌉ per chain (K·⌈N/K⌉ total), keeping chains equal-length so the
/// split-chain diagnostics stay balanced.
///
/// \code
///   MultiChainOptions opt;
///   opt.num_chains = 8;
///   auto engine = MultiChainSampler::Create(model, {}, opt, /*seed=*/42);
///   MultiChainEstimate est = engine->EstimateFlowProbability(u, v, 8000);
///   if (!est.diagnostics.Converged()) { /* widen the run */ }
///   use(est.value, est.diagnostics.mcse);
/// \endcode

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/flow_query.h"
#include "core/mh_sampler.h"
#include "graph/batch_reachability.h"
#include "obs/metrics.h"
#include "stats/convergence.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace infoflow {

/// \brief Tuning knobs for the multi-chain engine.
struct MultiChainOptions {
  /// K: number of independent chains. Throughput saturates at the worker
  /// count; extra chains beyond that still sharpen the diagnostics.
  std::size_t num_chains = 8;
  /// Thread-pool size; 0 → min(num_chains, hardware concurrency). Purely a
  /// scheduling knob: estimates are identical for every value.
  std::size_t num_threads = 0;
  /// Per-chain tuning (burn-in, thinning, proposal ablation).
  MhOptions mh;
  /// Evaluate indicator draws 64 retained samples per BFS pass: each chain
  /// packs its streamed states into edge-major 64-sample blocks and answers
  /// them through BatchReachabilityWorkspace. false falls back to one
  /// scalar BFS per sample (the `--scalar-reachability` escape hatch).
  /// Draws are bit-identical either way — indicators are deterministic and
  /// the chains' RNG streams are untouched.
  bool use_batch_reachability = true;

  /// Validates the option values.
  Status Validate() const;
  /// Validates `num_chains` alone, for callers that ignore `mh`.
  Status ValidateNumChains() const;
};

/// \brief A pooled estimate plus the evidence it converged.
struct MultiChainEstimate {
  /// Pooled (all chains, equal weight) point estimate.
  double value = 0.0;
  /// Cross-chain convergence diagnostics of the underlying draw sequences.
  ChainDiagnostics diagnostics;
};

/// \brief SampleDispersion result: merged per-sample spread counts plus
/// diagnostics over the count sequences.
struct DispersionEstimate {
  /// Chain-major concatenation (chain 0's samples first). One count per
  /// retained sample: nodes reached minus the source.
  std::vector<std::uint32_t> counts;
  /// Diagnostics over the per-chain count sequences.
  ChainDiagnostics diagnostics;
};

/// \brief K independent MhSampler chains over a shared thread pool, with
/// merged estimators mirroring the single-chain API.
///
/// Thread-safety: an engine instance must be driven from one thread at a
/// time (the chains advance statefully between calls, like MhSampler);
/// internally each estimate fans the chains out across the pool.
class MultiChainSampler {
 public:
  /// \brief Builds K chains whose shared stationary distribution is
  /// Pr[x | M, C]. Fails when the conditions are invalid or no admissible
  /// initial state exists (same preconditions as MhSampler::Create).
  static Result<MultiChainSampler> Create(PointIcm model,
                                          FlowConditions conditions,
                                          MultiChainOptions options,
                                          std::uint64_t seed);

  /// The documented seed contract: SplitMix64 finalizer over
  /// seed + (chain+1)·golden-ratio. Exposed so tests can pin it.
  static std::uint64_t DeriveChainSeed(std::uint64_t seed, std::size_t chain);

  /// \brief Pooled estimate of Pr[source ⤳ sink | M, C] (Eq. 5) from
  /// num_chains·⌈num_samples/num_chains⌉ retained samples.
  MultiChainEstimate EstimateFlowProbability(NodeId source, NodeId sink,
                                             std::size_t num_samples);

  /// \brief One pass over the pooled samples: Pr[source ⤳ sink_j | M, C]
  /// with per-sink diagnostics.
  std::vector<MultiChainEstimate> EstimateCommunityFlow(
      NodeId source, const std::vector<NodeId>& sinks,
      std::size_t num_samples);

  /// \brief Multi-source variant: Pr[∃ s ∈ sources: s ⤳ sink_j | M, C].
  std::vector<MultiChainEstimate> EstimateCommunityFlowMulti(
      const std::vector<NodeId>& sources, const std::vector<NodeId>& sinks,
      std::size_t num_samples);

  /// \brief Pooled estimate of the probability that *all* listed flows hold
  /// jointly in one state.
  MultiChainEstimate EstimateJointFlowProbability(const FlowConditions& flows,
                                                  std::size_t num_samples);

  /// \brief Pooled dispersion samples of `source` (spread-size counts).
  DispersionEstimate SampleDispersion(NodeId source, std::size_t num_samples);

  /// Number of chains K.
  std::size_t num_chains() const { return chains_.size(); }

  /// Per-chain retained-sample quota for a request of `num_samples`:
  /// ⌈num_samples / K⌉.
  std::size_t SamplesPerChain(std::size_t num_samples) const;

  /// Transitions attempted / accepted, summed over chains.
  std::uint64_t steps_taken() const;
  std::uint64_t steps_accepted() const;

  /// Chain k (for tests of the seed contract).
  const MhSampler& chain(std::size_t k) const { return chains_[k]; }

 private:
  MultiChainSampler(std::vector<MhSampler> chains, MultiChainOptions options);

  /// All chains share one model topology; chain 0's copy is canonical.
  const DirectedGraph& ModelGraph() const {
    return chains_.front().model().graph();
  }

  /// Runs `per_chain` retained samples on every chain in parallel;
  /// `record(k, sample_index, state)` runs on the worker owning chain k.
  template <typename Record>
  void RunChains(std::size_t per_chain, const Record& record);

  /// Batch-path driver: packs chain k's streamed states into its edge-major
  /// block buffer and calls `eval(k, block_start, lanes, edge_words)` on the
  /// worker owning chain k each time a 64-sample block fills (or the ragged
  /// tail completes). `lanes` is the number of valid samples in the block.
  template <typename EvalBlock>
  void RunChainsBatched(std::size_t per_chain, const EvalBlock& eval);

  /// Publishes cross-chain convergence gauges (R̂ / ESS / MCSE) after an
  /// estimate completes.
  void PublishDiagnostics(const ChainDiagnostics& diagnostics);

  /// Per-chain registry handles, resolved once at construction (names like
  /// "multi_chain.chain.3.acceptance_rate").
  struct ChainMetricHandles {
    obs::Gauge* acceptance_rate;
    obs::Gauge* samples_per_s;
  };

  std::vector<MhSampler> chains_;
  MultiChainOptions options_;
  std::vector<ChainMetricHandles> chain_metrics_;
  obs::Gauge* metric_rhat_;
  obs::Gauge* metric_ess_;
  obs::Gauge* metric_mcse_;
  obs::Counter* metric_samples_drawn_;
  obs::Counter* metric_estimates_;
  /// Scratch reachability workspace per chain (MhSampler's own workspace is
  /// private to its estimators; the engine consumes raw NextSample states).
  std::vector<ReachabilityWorkspace> workspaces_;
  /// Bit-parallel BFS workspace per chain (batch path).
  std::vector<BatchReachabilityWorkspace> batch_workspaces_;
  /// Per-chain edge-major packing buffer: one word per edge, bit s = edge
  /// activity in sample s of the chain's current 64-sample block.
  std::vector<std::vector<std::uint64_t>> pack_buffers_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace infoflow
