/// \file strip_reachability.h
/// \brief Multi-word bit-parallel BFS: 64·W sampled worlds per pass.
///
/// BatchReachabilityWorkspace amortizes one adjacency walk over 64 sampled
/// pseudo-states by packing edge activity into one `uint64_t` per edge.
/// This workspace widens the lane plane to a **strip** of W words per edge
/// (W ∈ {1, 4, 8} → 64/256/512 lanes per pass), so the same walk replays
/// Eq. 5 over up to 512 states. Inputs are **strip-major**: word
/// `strip_words[e*W + w]` is edge e's activity across the 64 samples of
/// block w of the strip (see strip_plane.h for the layout builder). Every
/// lane-mask argument and every ReachedMask() result is likewise a span of
/// W words in block order.
///
/// On top of the wider strips the fixpoint loop is direction-optimizing
/// (Beamer-style): rounds run top-down — drain the frontier bitmap and push
/// each node's delta mask through its out-edges — until the live frontier
/// exceeds a tunable fraction of the graph's nodes, at which point a round
/// flips to a bottom-up pull over the reversed CSR: every non-saturated
/// node ORs in `reached[src] & plane[e]` across its in-edges in one
/// sequential sweep, visiting each node once regardless of how many
/// distinct arrival depths would have revisited it top-down. Reached masks
/// grow monotonically under OR toward a unique fixpoint, so push and pull
/// rounds commute: results are bit-identical to the 64-lane and scalar
/// references whatever the sweep schedule (the differential suite in
/// tests/test_strip_reachability.cc pins this).
///
/// Run answers every sink at once; RunUntil answers one target and meets
/// in the middle instead (Pohl's bidirectional search): a forward side
/// grows the reached masks from the sources over out-edges while a
/// backward side grows per-node "reaches the target" masks from the
/// target over the same reversed CSR the pulls sweep, both on the one
/// strip plane, and each round expands the side whose queue has the
/// smaller degree sum. A lane is decided yes when a node newly reached on
/// one side is already reached on the other, and no once either side has
/// nothing pending in it: a source reaches the target in a world exactly
/// when the target's backward closure there holds a source, so the answer
/// equals Run's mask at the target bit for bit.
///
/// Callers that pick the width at runtime (query engine, sketch build,
/// impact cascades) go through the StripWorkspace interface; the per-pass
/// virtual dispatch is amortized over an entire strip BFS.

#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/strip_ops.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace infoflow {

/// \brief Requested replay lane width (`--lanes {64,256,512,auto}`).
///
/// kAuto picks the widest strip the batch fills: ≥512 rows → 512 lanes,
/// ≥256 rows → 256 lanes, else the 64-lane reference path.
enum class LaneWidth {
  kAuto,
  k64,
  k256,
  k512,
};

/// "auto", "64", "256", "512".
const char* LaneWidthName(LaneWidth lanes);

/// Inverse of LaneWidthName; errors on anything else.
Result<LaneWidth> ParseLaneWidth(std::string_view name);

/// Words per strip (1, 4, or 8) for `lanes` over a bank of `num_rows`
/// samples, applying the kAuto rule above. When the graph's size is given
/// (nonzero), kAuto additionally caps the width so the strip replay's
/// working set — per-node reached+propagated state plus one strip of the
/// edge plane, (2·num_nodes + num_edges)·8·W bytes — stays cache-resident
/// (kStripWorkingSetBudget): wide strips trade ~3–4× fewer node revisits
/// for W× the bytes per visit, a measured win only while those bytes come
/// from L2. Explicit widths are never capped.
unsigned ResolveStripWords(LaneWidth lanes, std::size_t num_rows,
                           std::size_t num_nodes = 0,
                           std::size_t num_edges = 0);

/// kAuto working-set budget (bytes) for ResolveStripWords: ≈L2/3 on the
/// dev box, matching the measured width crossover on the bench shapes
/// (512 lanes win through ~2000 nodes / 5000 edges, 256 through
/// ~4000/10000, 64-lane beyond).
inline constexpr std::size_t kStripWorkingSetBudget = 640 * 1024;

/// \brief Runtime-width handle over StripReachabilityWorkspace<W>.
///
/// Mirrors the BatchReachabilityWorkspace API with every mask widened to a
/// words()-word span; see that class for the contract of each member
/// (Run ≡ Begin + Seed* + Propagate, the incremental Seed/Propagate
/// discipline the reverse sketch build seeds through). RunUntil is the
/// bidirectional search of the file comment. Not thread-safe; give each
/// worker its own instance.
class StripWorkspace {
 public:
  virtual ~StripWorkspace() = default;

  /// Strip width W: the number of 64-lane blocks every pass replays.
  virtual unsigned words() const = 0;

  virtual void Run(const DirectedGraph& graph,
                   const std::vector<NodeId>& sources,
                   const std::uint64_t* strip_words,
                   const std::uint64_t* lane_mask) = 0;

  /// Writes into `target_mask` the lanes of `lane_mask` in which `target`
  /// is reachable from `sources` — Run()'s ReachedMask(target), bit for
  /// bit — by meeting in the middle (file comment). ReachedMask() then
  /// holds only the forward side's explored prefix. The backward side's
  /// state is allocated on a workspace's first call.
  virtual void RunUntil(const DirectedGraph& graph,
                        const std::vector<NodeId>& sources,
                        const std::uint64_t* strip_words, NodeId target,
                        const std::uint64_t* lane_mask,
                        std::uint64_t* target_mask) = 0;

  virtual void Begin(const DirectedGraph& graph) = 0;
  virtual void Seed(NodeId v, const std::uint64_t* lanes) = 0;
  virtual void Propagate(const std::uint64_t* strip_words) = 0;

  /// W-word span; all-zero when v was never touched.
  virtual const std::uint64_t* ReachedMask(NodeId v) const = 0;

  virtual const std::vector<NodeId>& TouchedNodes() const = 0;

  /// `counts` spans words()·64 entries, indexed `w*64 + lane`.
  virtual void AccumulateReachedCounts(std::uint32_t* counts) const = 0;

  /// A round flips to the bottom-up pull when the live frontier holds more
  /// than `fraction` of the graph's nodes. 0 forces every round bottom-up;
  /// anything > 1 forces pure top-down (both used by the differential
  /// tests).
  virtual void set_pull_threshold(double fraction) = 0;

  /// Factory over the explicit instantiations; `width_words` ∈ {1, 4, 8}.
  static std::unique_ptr<StripWorkspace> Create(unsigned width_words,
                                                const DirectedGraph& graph);
};

/// Default pull-threshold fraction; chosen on the fig6 bench shape where
/// near-critical percolation keeps mid-BFS frontiers wide.
inline constexpr double kDefaultPullThreshold = 0.25;

/// \brief The W-word strip workspace (see file comment). W is compile-time
/// so the per-edge kernels unroll; generic explicit instantiations for
/// W ∈ {1, 4, 8} live in strip_reachability.cc, with AVX2/AVX-512-tagged
/// ones (Isa, see strip_ops.h) in strip_reachability_avx2.cc/_avx512.cc
/// when the toolchain can target those ISAs — Create() picks the widest
/// variant the running CPU supports. All variants compute bit-identical
/// masks. W=1 exists to differentially pin the template against
/// BatchReachabilityWorkspace at identical width.
template <unsigned W, int Isa = kIsaGeneric>
class StripReachabilityWorkspace final : public StripWorkspace {
 public:
  explicit StripReachabilityWorkspace(const DirectedGraph& graph);

  unsigned words() const override { return W; }

  void Run(const DirectedGraph& graph, const std::vector<NodeId>& sources,
           const std::uint64_t* strip_words,
           const std::uint64_t* lane_mask) override;

  void RunUntil(const DirectedGraph& graph,
                const std::vector<NodeId>& sources,
                const std::uint64_t* strip_words, NodeId target,
                const std::uint64_t* lane_mask,
                std::uint64_t* target_mask) override;

  void Begin(const DirectedGraph& graph) override;
  void Seed(NodeId v, const std::uint64_t* lanes) override;
  void Propagate(const std::uint64_t* strip_words) override;

  const std::uint64_t* ReachedMask(NodeId v) const override {
    return reached_.data() + std::size_t{v} * W;
  }

  const std::vector<NodeId>& TouchedNodes() const override {
    return touched_;
  }

  void AccumulateReachedCounts(std::uint32_t* counts) const override;

  void set_pull_threshold(double fraction) override {
    pull_threshold_ = fraction;
  }

 private:
  void BindGraph(const DirectedGraph& graph);

  /// The direction-optimizing fixpoint loop behind Run and Propagate.
  void Finish(const std::uint64_t* strip_words);

  /// One level of RunUntil's meet search on one side (forward over
  /// out-edges into reached_, or backward over in-edges into
  /// back_reached_): drains the side's queue, relaxing only the `live`
  /// (undecided) lanes of each delta. A lane grown at a node the other
  /// side already holds moves from `live` to `found`. On return `live`
  /// keeps only the lanes this level left pending, the side's queue holds
  /// the nodes that grew, and `degree_sum` their degree sum. Returns the
  /// number of nodes relaxed.
  template <bool kBackward>
  std::uint64_t MeetRound(const std::uint64_t* strip_words,
                          std::uint64_t* live, std::uint64_t* found,
                          std::uint64_t& degree_sum);

  /// One top-down round: drains `frontier` in node-id order pushing delta
  /// masks through out-edges, marking growth in `next`. Returns the number
  /// of frontier nodes relaxed (the frontier-words metric).
  std::uint64_t PushRound(const std::uint64_t* strip_words,
                          std::uint64_t* frontier, std::uint64_t* next);

  /// One bottom-up round: consumes the entire pending set (clears
  /// `frontier`), sweeps all nodes pulling over the reversed CSR, marks
  /// growth in `next`. Returns the number of nodes swept.
  std::uint64_t PullRound(const std::uint64_t* strip_words,
                          std::uint64_t* frontier, std::uint64_t* next);

  /// Per-node W-word reached masks (`reached_[v*W + w]`); zero outside the
  /// last run's touched set, which Begin re-zeroes instead of all n·W words.
  std::vector<std::uint64_t> reached_;
  /// Lanes already relaxed through v's out-edges (top-down) or claimed
  /// delivered by a full pull round (bottom-up); pushes relax only the
  /// delta `reached_ & ~propagated_`.
  std::vector<std::uint64_t> propagated_;
  /// Level-synchronous frontier bitmaps (bit v = node v pending), exactly
  /// as in the 64-lane workspace.
  std::vector<std::uint64_t> frontier_bits_;
  std::vector<std::uint64_t> next_bits_;
  std::vector<std::uint64_t> ever_bits_;
  std::vector<NodeId> touched_;

  /// Union of every lane seeded since Begin: no reached mask can exceed it,
  /// so a node matching it is saturated and the pull sweep skips it.
  std::uint64_t seeded_union_[W] = {};

  double pull_threshold_ = kDefaultPullThreshold;

  /// Flat out-adjacency (as in BatchReachabilityWorkspace) plus the
  /// reversed CSR the pull rounds sweep: node v's in-edges are
  /// [in_first_[v], in_first_[v+1]), with the source node in in_src_ and
  /// the *forward* edge id (the strip-plane index) in in_eid_.
  const DirectedGraph* bound_graph_ = nullptr;
  std::vector<EdgeId> first_edge_;
  std::vector<NodeId> dst_;
  std::vector<EdgeId> in_first_;
  std::vector<NodeId> in_src_;
  std::vector<EdgeId> in_eid_;

  /// RunUntil's backward side, sized on the first RunUntil: per-node
  /// "reaches the target" masks and their propagated lanes, with the
  /// forward side's delta discipline; zero outside back_touched_, which
  /// the next RunUntil re-zeroes. back_ever_ marks back_touched_.
  std::vector<std::uint64_t> back_reached_;
  std::vector<std::uint64_t> back_propagated_;
  std::vector<std::uint64_t> back_ever_;
  std::vector<NodeId> back_touched_;
  /// Queue marks (bit v = v waits in that side's queue; frontier_bits_
  /// serves the forward side) and the per-side level queues, [0] forward
  /// and [1] backward. Marks are all zero between runs.
  std::vector<std::uint64_t> back_queued_;
  std::vector<NodeId> queue_[2];
  std::vector<NodeId> next_queue_[2];

  obs::Counter* metric_strips_;
  obs::Counter* metric_frontier_words_;
  obs::Counter* metric_pull_rounds_;
  obs::Histogram* metric_strip_latency_us_;
};

extern template class StripReachabilityWorkspace<1, kIsaGeneric>;
extern template class StripReachabilityWorkspace<4, kIsaGeneric>;
extern template class StripReachabilityWorkspace<8, kIsaGeneric>;

}  // namespace infoflow
