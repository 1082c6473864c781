/// \file rr_index.h
/// \brief Reverse-reachable sketches over a SampleBank generation.
///
/// The paper's §I motivates learned flow models with a marketing question:
/// which k users maximize expected information reach? Eq. 5 already answers
/// "does u reach t" as an expectation of reachability indicators over
/// retained pseudo-states — and the serve tier's SampleBank keeps thousands
/// of those states resident. Inverting them yields reverse-reachable (RR)
/// sketches in the sense of Frey et al., *Efficient Information Flow
/// Maximization in Probabilistic Graphs*: one sketch per (target, retained
/// state), holding the set of nodes that reach the target in that state.
/// A seed set's expected spread is then proportional to the fraction of
/// sketches it covers, and greedy max-coverage over the sketches gives the
/// classic (1 − 1/e)-approximate seed set without simulating a single
/// fresh cascade.
///
/// Sketches are built **bit-parallel**, not by per-state scalar BFS: the
/// bank's edge-major plane is gathered into reversed-graph edge order once
/// per 64-row block, and one `BatchReachabilityWorkspace` pass seeded at a
/// target on the *reversed* graph computes 64 RR sets at once — node u's
/// reached mask bit s means "u reaches the target in row 64·b + s". The
/// masks are stored lane-packed per node (postings), so greedy coverage
/// counting is popcount over lane words.
///
/// Conditioning (Eq. 7–8) reuses the serve tier's lane-mask discipline:
/// constraints narrow each block's valid-lane mask to the surviving
/// I(x, C) lanes on the *forward* graph before any sketch is built, so a
/// constrained maximization only ever counts admissible pseudo-states.
///
/// `RrIndex` caches the default (unconstrained, all-targets) sketch set
/// per bank generation with the same RCU publish discipline as the bank's
/// own generations: immutable once built, swapped by shared_ptr under a
/// mutex, primed eagerly when the server publishes a refresh or drift
/// rebuild so streamed evidence invalidates stale sketches before the next
/// top-k query pays the build.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/flow_query.h"
#include "graph/graph.h"
#include "serve/sample_bank.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace infoflow::seedmax {

/// \brief A graph's transpose plus the edge-id correspondence needed to
/// gather a parent-edge-major lane plane into reversed-edge order.
///
/// GraphBuilder assigns edge ids by (src, dst) lexicographic order, so the
/// reversed graph's edge ids permute the parent's; `ParentEdge` maps them
/// back and `GatherBlock` applies the permutation to one 64-lane block.
/// Built once per graph and shared by every generation's sketch build.
class ReversedGraphView {
 public:
  /// Builds the transpose of `graph` (must outlive the view via the shared
  /// pointer) and the rev→parent edge map.
  static ReversedGraphView Build(std::shared_ptr<const DirectedGraph> graph);

  /// The original (forward) graph.
  const DirectedGraph& parent() const { return *parent_; }
  /// Shared handle on the forward graph.
  const std::shared_ptr<const DirectedGraph>& parent_ptr() const {
    return parent_;
  }
  /// The transposed graph: edge (u, v) here iff (v, u) in parent().
  const DirectedGraph& reversed() const { return reversed_; }

  /// Parent edge id of reversed edge `rev_edge`.
  EdgeId ParentEdge(EdgeId rev_edge) const { return to_parent_[rev_edge]; }

  /// Gathers one block's parent-edge-major words (`parent().num_edges()`
  /// entries) into reversed edge order: out[re] = in[ParentEdge(re)].
  void GatherBlock(const std::uint64_t* parent_words,
                   std::uint64_t* reversed_words) const;

  /// Strip variant: gathers one strip-major strip (`width` words per edge,
  /// see graph/strip_plane.h) into reversed edge order —
  /// out[re·width + w] = in[ParentEdge(re)·width + w].
  void GatherStrip(const std::uint64_t* parent_strip, unsigned width,
                   std::uint64_t* reversed_strip) const;

 private:
  std::shared_ptr<const DirectedGraph> parent_;
  DirectedGraph reversed_;
  std::vector<EdgeId> to_parent_;
};

/// \brief One lane-packed posting: node covers the sketches of sketch
/// group `group` in the lanes (bits) of `lanes`.
///
/// A *sketch group* is one (target, block) pair — 64 potential sketches
/// packed in a word; `group = target_index · num_blocks + block`. The
/// posting's lanes are always a subset of the group's surviving lane mask.
struct RrPosting {
  std::uint32_t group;
  std::uint64_t lanes;
};

/// \brief Sketch-build tuning.
struct RrBuildOptions {
  /// Spread universe: RR sketches are rooted at every listed target (the
  /// constrained flow-maximization case — e.g. a target community whose
  /// coverage the seeds should maximize). Empty = every node, which makes
  /// the coverage estimate the exact bank-replay spread. Duplicates are
  /// rejected.
  std::vector<NodeId> targets;
  /// Eq. 7–8 conditioning: only pseudo-states satisfying every constraint
  /// contribute sketches (survivor lanes are masked out per block on the
  /// forward graph before the reverse passes run).
  FlowConditions given;
  /// Minimum surviving rows for a conditioned build — mirrors the query
  /// engine's conditional floor so estimates never silently degenerate.
  std::size_t min_conditional_rows = 32;
  /// Worker pool for the reverse passes, parallel across 64-row blocks
  /// (each worker owns its own BFS workspace and gathered plane); null →
  /// serial. Per-block postings are merged back in block order, so the
  /// built set is bit-identical to a serial build.
  ThreadPool* pool = nullptr;
};

/// \brief An immutable set of RR sketches for one bank generation.
///
/// Storage is a CSR over nodes: `Postings(u)` lists every sketch group u
/// appears in with its lane word. Thread-safe by construction after build.
class RrSketchSet {
 public:
  /// \brief Runs the bit-parallel reverse passes and packs the postings.
  /// Fails on out-of-range/duplicate targets, invalid conditions, or a
  /// conditioned build whose surviving rows fall below the floor.
  static Result<RrSketchSet> Build(const ReversedGraphView& view,
                                   const serve::BankGeneration& generation,
                                   const RrBuildOptions& options = {});

  /// Bank generation id the sketches were inverted from.
  std::uint64_t generation() const { return generation_; }
  /// Model epoch of that generation.
  std::uint64_t model_epoch() const { return model_epoch_; }
  /// Spread universe size (n for all-node targets, |targets| otherwise):
  /// the scale factor of the unbiased spread estimate.
  std::size_t universe() const { return universe_; }
  /// Total sketches R = Σ_groups popcount(surviving lanes).
  std::uint64_t num_sketches() const { return num_sketches_; }
  /// Sketch groups (targets × blocks); sizing for coverage scratch.
  std::size_t num_groups() const { return num_groups_; }
  /// Rows in the source generation.
  std::size_t total_rows() const { return total_rows_; }
  /// Rows surviving the conditioning (== total_rows() unconditioned).
  std::size_t effective_rows() const { return effective_rows_; }
  /// True when the build was conditioned on constraints.
  bool conditioned() const { return conditioned_; }
  /// Number of nodes the CSR spans.
  std::size_t num_nodes() const { return offsets_.size() - 1; }

  /// The sketch groups node `u` reaches, with lane words.
  std::span<const RrPosting> Postings(NodeId u) const {
    return {postings_.data() + offsets_[u],
            postings_.data() + offsets_[u + 1]};
  }

  /// Sketches node `u` covers: the lanes of all its postings, counted once
  /// at build time (the selector's first-round gains).
  std::uint64_t Coverage(NodeId u) const { return coverage_[u]; }

 private:
  RrSketchSet() = default;

  std::uint64_t generation_ = 0;
  std::uint64_t model_epoch_ = 0;
  std::size_t universe_ = 0;
  std::uint64_t num_sketches_ = 0;
  std::size_t num_groups_ = 0;
  std::size_t total_rows_ = 0;
  std::size_t effective_rows_ = 0;
  bool conditioned_ = false;
  std::vector<std::size_t> offsets_;
  std::vector<RrPosting> postings_;
  /// coverage_[u] = Σ popcount of Postings(u)'s lanes.
  std::vector<std::uint64_t> coverage_;
};

/// \brief Generation-keyed cache of the default sketch set: Acquire builds
/// on first sight of a generation and hands out immutable shared_ptr
/// snapshots; readers holding an old set are never invalidated. Builds are
/// single-flight: they run one at a time, and a caller that wants the
/// generation being built waits for that build instead of starting a
/// second one.
class RrIndex {
 public:
  /// Builds the reversed view once and spins the sketch-build worker pool
  /// (0 → hardware concurrency); sketch sets are built lazily.
  explicit RrIndex(std::shared_ptr<const DirectedGraph> graph,
                   std::size_t num_threads = 0);

  /// The shared reversed view (for ad-hoc constrained builds).
  const ReversedGraphView& view() const { return view_; }

  /// The sketch-build worker pool (for ad-hoc constrained builds, which
  /// parallelize across blocks exactly like the cached default build).
  ThreadPool& pool() { return pool_; }

  /// \brief The default (all-targets, unconditioned) sketch set for
  /// `generation`, building and publishing it if this generation has not
  /// been seen yet. Concurrent callers asking for a generation under
  /// construction wait for that build and share its set; if it fails, the
  /// next of them retries it.
  Result<std::shared_ptr<const RrSketchSet>> Acquire(
      std::shared_ptr<const serve::BankGeneration> generation);

  /// \brief Epoch fan-out hook, called by the server when a refresh or
  /// drift rebuild publishes: eagerly re-inverts the new generation **iff
  /// a sketch set was ever built** — a daemon that never served a top-k
  /// query does not pay sketch builds on every refresh, while one that did
  /// keeps its index warm (and streamed evidence deterministically
  /// invalidates stale sketches).
  void Prime(std::shared_ptr<const serve::BankGeneration> generation);

 private:
  ReversedGraphView view_;
  ThreadPool pool_;
  /// Held across a build, so builds run one at a time (single flight).
  std::mutex build_mutex_;
  std::mutex mutex_;
  std::shared_ptr<const RrSketchSet> current_;
  bool ever_built_ = false;
};

}  // namespace infoflow::seedmax
