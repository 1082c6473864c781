#include "seedmax/seed_selector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <vector>

#include "obs/metrics.h"

namespace infoflow::seedmax {
namespace {

struct SelectMetrics {
  obs::Counter* selections =
      &obs::GetCounter("seedmax.select.selections_total");
  obs::Counter* evaluations =
      &obs::GetCounter("seedmax.select.evaluations_total");
  obs::Counter* prune_hits =
      &obs::GetCounter("seedmax.select.prune_hits_total");
  obs::Counter* popcount_words =
      &obs::GetCounter("seedmax.select.popcount_words_total");

  static SelectMetrics& Get() {
    static SelectMetrics metrics;
    return metrics;
  }
};

/// CELF queue entry: `gain` is exact when computed in round `round`, an
/// upper bound (submodularity) in any later round.
struct Entry {
  std::uint64_t gain;
  NodeId node;
  std::size_t round;
};

struct EntryLess {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;  // deterministic: smaller id wins ties
  }
};

}  // namespace

Status SeedMaxOptions::Validate(std::size_t num_nodes) const {
  if (num_seeds == 0) {
    return Status::InvalidArgument("num_seeds must be positive");
  }
  for (const NodeId c : candidates) {
    if (c >= num_nodes) {
      return Status::OutOfRange("candidate node ", c,
                                " not in graph with ", num_nodes, " nodes");
    }
  }
  return Status::OK();
}

std::vector<NodeId> SeedMaxResult::seeds() const {
  std::vector<NodeId> out;
  out.reserve(picks.size());
  for (const SeedPick& pick : picks) out.push_back(pick.node);
  return out;
}

Result<SeedMaxResult> SelectSeeds(const RrSketchSet& sketches,
                                  const SeedMaxOptions& options) {
  IF_RETURN_NOT_OK(options.Validate(sketches.num_nodes()));

  // Dedupe the candidate pool (every node when unrestricted).
  std::vector<NodeId> candidates;
  if (options.candidates.empty()) {
    candidates.resize(sketches.num_nodes());
    for (NodeId v = 0; v < candidates.size(); ++v) candidates[v] = v;
  } else {
    std::vector<bool> seen(sketches.num_nodes(), false);
    for (const NodeId c : options.candidates) {
      if (!seen[c]) {
        seen[c] = true;
        candidates.push_back(c);
      }
    }
  }
  if (options.num_seeds > candidates.size()) {
    return Status::InvalidArgument("num_seeds (", options.num_seeds,
                                   ") exceeds the ", candidates.size(),
                                   " distinct candidates");
  }

  SelectMetrics& metrics = SelectMetrics::Get();
  SeedMaxResult result;
  result.generation = sketches.generation();
  result.model_epoch = sketches.model_epoch();
  result.num_sketches = sketches.num_sketches();
  result.universe = sketches.universe();
  result.total_rows = sketches.total_rows();
  result.effective_rows = sketches.effective_rows();

  std::vector<std::uint64_t> covered(sketches.num_groups(), 0);
  const auto gain_of = [&](NodeId u) {
    const auto postings = sketches.Postings(u);
    std::uint64_t gain = 0;
    for (const RrPosting& p : postings) {
      gain += static_cast<std::uint64_t>(
          std::popcount(p.lanes & ~covered[p.group]));
    }
    metrics.popcount_words->Increment(postings.size());
    ++result.evaluations;
    return gain;
  };

  // Round 0 evaluates every candidate once. Coverage is still empty, so a
  // candidate's gain is every sketch it covers, which the sketch set
  // counted at build time — no posting walk per request.
  std::priority_queue<Entry, std::vector<Entry>, EntryLess> queue;
  for (const NodeId u : candidates) {
    queue.push({sketches.Coverage(u), u, 0});
  }
  result.evaluations += candidates.size();

  const double r_total = static_cast<double>(sketches.num_sketches());
  const double scale = static_cast<double>(sketches.universe());
  std::uint64_t covered_total = 0;
  // Each surviving row holds one sketch per target, and its sketches are
  // strongly correlated (one pseudo-state's cascade covers many targets
  // together), while rows are independent. So the spread is the mean over
  // surviving rows of the row's covered-target count, and its MCSE is that
  // count's SD over rows / sqrt(rows). Sketch group g is (target g / B,
  // block g % B) for B blocks; lane l of block b is row 64·b + l, and a
  // pick bumps the count of every row it newly covers.
  const std::size_t num_blocks =
      sketches.universe() > 0 ? sketches.num_groups() / sketches.universe()
                              : 0;
  const double rows = static_cast<double>(sketches.effective_rows());
  std::vector<std::uint64_t> row_covered(num_blocks * 64, 0);
  std::uint64_t sum_sq = 0;  // Σ over rows of covered count²
  while (result.picks.size() < options.num_seeds) {
    Entry top = queue.top();
    queue.pop();
    if (top.round != result.picks.size()) {
      // Stale upper bound: recompute against the current coverage. If the
      // fresh gain still dominates the best remaining upper bound, the
      // greedy choice is settled — no other candidate can beat it.
      top.gain = gain_of(top.node);
      top.round = result.picks.size();
      if (!queue.empty() && top.gain < queue.top().gain) {
        queue.push(top);
        continue;
      }
      if (!queue.empty()) {
        ++result.prune_hits;
        metrics.prune_hits->Increment();
      }
    }
    // Apply the pick: fold its lanes into the coverage.
    std::uint64_t marginal = 0;
    for (const RrPosting& p : sketches.Postings(top.node)) {
      std::uint64_t fresh = p.lanes & ~covered[p.group];
      marginal += static_cast<std::uint64_t>(std::popcount(fresh));
      covered[p.group] |= p.lanes;
      std::uint64_t* block_rows = &row_covered[(p.group % num_blocks) * 64];
      for (; fresh != 0; fresh &= fresh - 1) {
        std::uint64_t& count = block_rows[std::countr_zero(fresh)];
        sum_sq += 2 * count + 1;
        ++count;
      }
    }
    covered_total += marginal;
    metrics.selections->Increment();

    SeedPick pick;
    pick.node = top.node;
    pick.marginal_coverage = marginal;
    const double p_hat =
        r_total > 0 ? static_cast<double>(covered_total) / r_total : 0.0;
    pick.spread = scale * p_hat;
    if (rows > 1.0) {
      const double mean = static_cast<double>(covered_total) / rows;
      const double var =
          std::max(0.0, (static_cast<double>(sum_sq) - rows * mean * mean) /
                            (rows - 1.0));
      pick.mcse = std::sqrt(var / rows);
    }
    result.picks.push_back(pick);
  }

  if (!result.picks.empty()) {
    result.spread = result.picks.back().spread;
    result.mcse = result.picks.back().mcse;
  }
  metrics.evaluations->Increment(result.evaluations);
  return result;
}

}  // namespace infoflow::seedmax
