/// \file seed_selector.h
/// \brief CELF lazy-greedy top-k seed selection over RR sketch coverage.
///
/// With sketches from rr_index.h, the expected spread of a seed set S is
/// estimated unbiasedly as universe · (covered sketches / R) — the
/// standard reverse-influence-sampling estimator — and maximizing spread
/// is max-coverage over the sketch groups. Coverage is monotone
/// submodular, so lazy greedy (CELF, as in core/influence_max.h) applies:
/// a stale cached gain is an upper bound on the true marginal gain, which
/// both skips re-evaluations and *prunes* — when a freshly recomputed
/// gain still dominates the best stale upper bound in the queue, the pick
/// is final without touching the remaining candidates (the bound pruning
/// of Frey et al.). All gain arithmetic is popcount over lane words.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "seedmax/rr_index.h"
#include "util/status.h"

namespace infoflow::seedmax {

/// \brief Selection tuning.
struct SeedMaxOptions {
  /// Seed-set size k.
  std::size_t num_seeds = 1;
  /// Restrict candidate seeds (empty: every node). Duplicates are ignored
  /// after validation.
  std::vector<NodeId> candidates;

  /// Validates against the sketch set's node universe.
  Status Validate(std::size_t num_nodes) const;
};

/// \brief One greedy pick with its running spread estimate.
struct SeedPick {
  NodeId node = 0;
  /// Marginal sketches newly covered by this pick.
  std::uint64_t marginal_coverage = 0;
  /// Unbiased spread estimate of the seed set up to and including this
  /// pick: universe · (covered / R).
  double spread = 0.0;
  /// MCSE of that estimate. The spread is the mean over surviving rows of
  /// the row's covered-target count, so this is that count's SD over the
  /// rows / sqrt(rows): a row's sketches share one pseudo-state and are
  /// counted together, not as independent draws.
  double mcse = 0.0;
};

/// \brief The selection outcome plus the counters behind the
/// `seedmax.select.*` metrics.
struct SeedMaxResult {
  /// Picks in selection order.
  std::vector<SeedPick> picks;
  /// Final spread estimate and MCSE (the last pick's, 0/0 when k = 0).
  double spread = 0.0;
  double mcse = 0.0;
  /// Gain evaluations performed (each is one posting-list walk).
  std::size_t evaluations = 0;
  /// Picks finalized by the CELF upper-bound short-circuit without
  /// exhausting the queue.
  std::size_t prune_hits = 0;
  /// Provenance, copied from the sketch set.
  std::uint64_t generation = 0;
  std::uint64_t model_epoch = 0;
  std::uint64_t num_sketches = 0;
  std::size_t universe = 0;
  std::size_t total_rows = 0;
  std::size_t effective_rows = 0;

  /// Seeds in selection order (convenience over `picks`).
  std::vector<NodeId> seeds() const;
};

/// \brief Lazy-greedy selection of `options.num_seeds` seeds maximizing
/// sketch coverage. Deterministic: ties break toward the smaller node id.
Result<SeedMaxResult> SelectSeeds(const RrSketchSet& sketches,
                                  const SeedMaxOptions& options);

}  // namespace infoflow::seedmax
