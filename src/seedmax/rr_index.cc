#include "seedmax/rr_index.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "graph/batch_reachability.h"
#include "graph/strip_plane.h"
#include "graph/strip_reachability.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow::seedmax {
namespace {

struct IndexMetrics {
  obs::Counter* builds = &obs::GetCounter("seedmax.sketch.builds_total");
  obs::Counter* postings =
      &obs::GetCounter("seedmax.sketch.postings_total");
  obs::Counter* reverse_passes =
      &obs::GetCounter("seedmax.sketch.reverse_passes_total");
  obs::Histogram* build_ms = &obs::GetHistogram(
      "seedmax.sketch.build_ms", obs::LogBuckets(0.05, 10000.0, 3));
  obs::Gauge* generation = &obs::GetGauge("seedmax.index.generation");

  static IndexMetrics& Get() {
    static IndexMetrics metrics;
    return metrics;
  }
};

}  // namespace

ReversedGraphView ReversedGraphView::Build(
    std::shared_ptr<const DirectedGraph> graph) {
  ReversedGraphView view;
  view.parent_ = std::move(graph);
  const DirectedGraph& parent = *view.parent_;
  GraphBuilder builder(parent.num_nodes());
  for (const Edge& edge : parent.edges()) {
    builder.AddEdge(edge.dst, edge.src).CheckOK();
  }
  view.reversed_ = std::move(builder).Build();
  // Both graphs order edge ids by (src, dst) lexicographically, so the
  // correspondence is a pure permutation recovered by endpoint lookup.
  view.to_parent_.resize(view.reversed_.num_edges());
  for (EdgeId re = 0; re < view.reversed_.num_edges(); ++re) {
    const Edge& edge = view.reversed_.edge(re);
    const EdgeId pe = parent.FindEdge(edge.dst, edge.src);
    IF_CHECK(pe != kInvalidEdge) << "transpose lost an edge";
    view.to_parent_[re] = pe;
  }
  return view;
}

void ReversedGraphView::GatherBlock(const std::uint64_t* parent_words,
                                    std::uint64_t* reversed_words) const {
  const std::size_t m = to_parent_.size();
  for (std::size_t re = 0; re < m; ++re) {
    reversed_words[re] = parent_words[to_parent_[re]];
  }
}

void ReversedGraphView::GatherStrip(const std::uint64_t* parent_strip,
                                    unsigned width,
                                    std::uint64_t* reversed_strip) const {
  const std::size_t m = to_parent_.size();
  for (std::size_t re = 0; re < m; ++re) {
    std::memcpy(reversed_strip + re * width,
                parent_strip + std::size_t{to_parent_[re]} * width,
                width * sizeof(std::uint64_t));
  }
}

Result<RrSketchSet> RrSketchSet::Build(
    const ReversedGraphView& view, const serve::BankGeneration& generation,
    const RrBuildOptions& options) {
  const DirectedGraph& parent = view.parent();
  const NodeId n = parent.num_nodes();
  if (generation.num_edges() != parent.num_edges()) {
    return Status::InvalidArgument(
        "bank generation has ", generation.num_edges(),
        " edges but the graph has ", parent.num_edges());
  }

  // Resolve the target universe (all nodes unless restricted).
  std::vector<NodeId> targets = options.targets;
  if (targets.empty()) {
    targets.resize(n);
    for (NodeId v = 0; v < n; ++v) targets[v] = v;
  } else {
    std::vector<bool> seen(n, false);
    for (const NodeId t : targets) {
      if (t >= n) {
        return Status::OutOfRange("target node ", t, " not in graph with ",
                                  n, " nodes");
      }
      if (seen[t]) {
        return Status::InvalidArgument("duplicate target node ", t);
      }
      seen[t] = true;
    }
  }

  WallTimer timer;
  const std::size_t num_blocks = generation.num_blocks();

  // Eq. 7–8 lane narrowing: run each constraint on the *forward* graph and
  // keep only the surviving I(x, C) lanes, exactly as the conditional
  // query path does — sketches over dead lanes would bias the estimate.
  std::vector<std::uint64_t> lane(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    lane[b] = generation.BlockLaneMask(b);
  }
  std::size_t effective_rows = generation.num_rows();
  if (!options.given.empty()) {
    IF_RETURN_NOT_OK(ValidateConditions(parent, options.given));
    BatchReachabilityWorkspace forward(parent);
    effective_rows = 0;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      for (const FlowConstraint& c : options.given) {
        if (lane[b] == 0) break;
        const std::uint64_t reached =
            forward.RunUntil(parent, {c.source}, generation.BlockEdgeWords(b),
                             c.sink, lane[b]);
        lane[b] = c.must_flow ? reached : lane[b] & ~reached;
      }
      effective_rows += static_cast<std::size_t>(std::popcount(lane[b]));
    }
    if (effective_rows < options.min_conditional_rows) {
      return Status::FailedPrecondition(
          "conditional seed selection: only ", effective_rows, " of ",
          generation.num_rows(),
          " bank rows satisfy the conditions (floor ",
          options.min_conditional_rows, ")");
    }
  }

  RrSketchSet set;
  set.generation_ = generation.id();
  set.model_epoch_ = generation.model_epoch();
  set.universe_ = targets.size();
  set.num_groups_ = targets.size() * num_blocks;
  set.total_rows_ = generation.num_rows();
  set.effective_rows_ = effective_rows;
  set.conditioned_ = !options.given.empty();
  set.num_sketches_ =
      static_cast<std::uint64_t>(effective_rows) * targets.size();

  IndexMetrics& metrics = IndexMetrics::Get();
  const std::size_t num_targets = targets.size();

  // Reverse passes over every block: gather the block's plane into
  // transposed edge order once, then one Begin/Seed/Propagate pass per
  // target answers "who reaches t" for all 64 rows of the block
  // simultaneously. Blocks are independent, so they fan out over the pool
  // when one is supplied — each worker task owns its own workspace and
  // gathered plane and fills per-block posting vectors, which the CSR
  // build below reads in block order (bit-identical to the serial loop;
  // TouchedNodes is ascending either way).
  const DirectedGraph& reversed = view.reversed();
  // Flat fields rather than an RrPosting member, whose padding would make
  // each triple 24 bytes instead of 16: these buffers are the build's
  // largest transient allocation.
  struct NodePosting {
    NodeId node;
    std::uint32_t group;
    std::uint64_t lanes;
  };
  std::vector<std::vector<NodePosting>> block_raw(num_blocks);
  // Replay width: strips of W consecutive blocks share one reverse pass
  // when the bank is deep enough (graph/strip_reachability.h), so the
  // sketch build consumes 64·W rows per BFS. W=1 keeps the classic
  // per-block loop. Per-word results equal the per-block fixpoints, and
  // postings are emitted per block in the same (target, node) order, so
  // the built set is bit-identical at every width.
  const unsigned strip_words =
      ResolveStripWords(LaneWidth::kAuto, generation.num_rows(),
                        reversed.num_nodes(), reversed.num_edges());
  if (strip_words > 1) {
    std::shared_ptr<const StripPlane> strip_plane =
        generation.AcquireStripPlane(strip_words);
    const std::size_t num_strips = strip_plane->num_strips;
    const auto build_strip = [&](StripWorkspace& workspace,
                                 std::uint64_t* reversed_strip,
                                 std::size_t s) {
      const std::size_t b0 = s * strip_words;
      // Lane-dead blocks ride along with zero lane words: their masks stay
      // zero, so they emit nothing — exactly a skip.
      std::uint64_t strip_lanes[kMaxStripWords] = {};
      std::uint64_t live = 0;
      for (unsigned w = 0; w < strip_words && b0 + w < num_blocks; ++w) {
        strip_lanes[w] = lane[b0 + w];
        live |= strip_lanes[w];
      }
      if (live == 0) return;
      view.GatherStrip(strip_plane->StripWords(s), strip_words,
                       reversed_strip);
      for (std::size_t ti = 0; ti < num_targets; ++ti) {
        workspace.Begin(reversed);
        workspace.Seed(targets[ti], strip_lanes);
        workspace.Propagate(reversed_strip);
        metrics.reverse_passes->Increment();
        for (const NodeId u : workspace.TouchedNodes()) {
          const std::uint64_t* mask = workspace.ReachedMask(u);
          for (unsigned w = 0; w < strip_words; ++w) {
            if (mask[w] == 0) continue;
            const auto group =
                static_cast<std::uint32_t>(ti * num_blocks + b0 + w);
            block_raw[b0 + w].push_back({u, group, mask[w]});
          }
        }
      }
    };
    if (options.pool != nullptr && options.pool->size() > 1 &&
        num_strips > 1) {
      const std::size_t num_chunks =
          std::min(num_strips, options.pool->size() * 4);
      const std::size_t per_chunk =
          (num_strips + num_chunks - 1) / num_chunks;
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t begin = c * per_chunk;
        const std::size_t end = std::min(num_strips, begin + per_chunk);
        if (begin >= end) break;
        options.pool->Submit([&, begin, end] {
          auto workspace = StripWorkspace::Create(strip_words, reversed);
          std::vector<std::uint64_t> reversed_strip(parent.num_edges() *
                                                    strip_words);
          for (std::size_t s = begin; s < end; ++s) {
            build_strip(*workspace, reversed_strip.data(), s);
          }
        });
      }
      options.pool->Wait();
    } else {
      auto workspace = StripWorkspace::Create(strip_words, reversed);
      std::vector<std::uint64_t> reversed_strip(parent.num_edges() *
                                                strip_words);
      for (std::size_t s = 0; s < num_strips; ++s) {
        build_strip(*workspace, reversed_strip.data(), s);
      }
    }
  } else {
  const auto build_block = [&](BatchReachabilityWorkspace& workspace,
                               std::uint64_t* reversed_words,
                               std::size_t b) {
    if (lane[b] == 0) return;
    view.GatherBlock(generation.BlockEdgeWords(b), reversed_words);
    std::vector<NodePosting>& out = block_raw[b];
    for (std::size_t ti = 0; ti < num_targets; ++ti) {
      workspace.Begin(reversed);
      workspace.Seed(targets[ti], lane[b]);
      workspace.Propagate(reversed_words);
      metrics.reverse_passes->Increment();
      const auto group = static_cast<std::uint32_t>(ti * num_blocks + b);
      for (const NodeId u : workspace.TouchedNodes()) {
        out.push_back({u, group, workspace.ReachedMask(u)});
      }
    }
  };
  if (options.pool != nullptr && options.pool->size() > 1 && num_blocks > 1) {
    // A few chunks per worker for balance (block costs vary with how many
    // lanes survive); each chunk amortizes one workspace + plane buffer.
    const std::size_t num_chunks =
        std::min(num_blocks, options.pool->size() * 4);
    const std::size_t per_chunk = (num_blocks + num_chunks - 1) / num_chunks;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t begin = c * per_chunk;
      const std::size_t end = std::min(num_blocks, begin + per_chunk);
      if (begin >= end) break;
      options.pool->Submit([&, begin, end] {
        BatchReachabilityWorkspace workspace(reversed);
        std::vector<std::uint64_t> reversed_words(parent.num_edges());
        for (std::size_t b = begin; b < end; ++b) {
          build_block(workspace, reversed_words.data(), b);
        }
      });
    }
    options.pool->Wait();
  } else {
    BatchReachabilityWorkspace workspace(reversed);
    std::vector<std::uint64_t> reversed_words(parent.num_edges());
    for (std::size_t b = 0; b < num_blocks; ++b) {
      build_block(workspace, reversed_words.data(), b);
    }
  }
  }

  // Counting sort the (node, group, lanes) triples, taken in block order,
  // into a CSR keyed by node — the layout the selector's gain loop walks
  // sequentially.
  set.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const std::vector<NodePosting>& br : block_raw) {
    for (const NodePosting& np : br) ++set.offsets_[np.node + 1];
  }
  for (std::size_t v = 1; v <= n; ++v) set.offsets_[v] += set.offsets_[v - 1];
  set.postings_.resize(set.offsets_.back());
  std::vector<std::size_t> cursor(set.offsets_.begin(),
                                  set.offsets_.end() - 1);
  set.coverage_.assign(n, 0);
  for (const std::vector<NodePosting>& br : block_raw) {
    for (const NodePosting& np : br) {
      set.postings_[cursor[np.node]++] = {np.group, np.lanes};
      set.coverage_[np.node] +=
          static_cast<std::uint64_t>(std::popcount(np.lanes));
    }
  }

  metrics.builds->Increment();
  metrics.postings->Increment(set.postings_.size());
  metrics.build_ms->Record(timer.Millis());
  metrics.generation->Set(static_cast<double>(generation.id()));
  return set;
}

RrIndex::RrIndex(std::shared_ptr<const DirectedGraph> graph,
                 std::size_t num_threads)
    : view_(ReversedGraphView::Build(std::move(graph))),
      pool_(num_threads) {}

Result<std::shared_ptr<const RrSketchSet>> RrIndex::Acquire(
    std::shared_ptr<const serve::BankGeneration> generation) {
  const std::uint64_t id = generation->id();
  const auto published = [&]() -> std::shared_ptr<const RrSketchSet> {
    std::lock_guard<std::mutex> lock(mutex_);
    if (current_ != nullptr && current_->generation() == id) return current_;
    return nullptr;
  };
  if (auto set = published()) return set;
  // Single flight: one build at a time. A caller that queued here behind
  // a build of its own generation finds that build published and shares
  // it; a failed build published nothing, so the next caller retries it.
  std::lock_guard<std::mutex> build_lock(build_mutex_);
  if (auto set = published()) return set;
  // Build outside mutex_: inversion is the expensive step and concurrent
  // readers of the previous set must not stall behind it.
  RrBuildOptions options;
  options.pool = &pool_;
  auto built = RrSketchSet::Build(view_, *generation, options);
  IF_RETURN_NOT_OK(built.status());
  auto set = std::make_shared<const RrSketchSet>(std::move(*built));
  std::lock_guard<std::mutex> lock(mutex_);
  ever_built_ = true;
  // A caller holding a stale generation may build it after a newer one
  // was published; keep the newest — generations only move forward.
  if (current_ == nullptr || current_->generation() <= id) current_ = set;
  return set;
}

void RrIndex::Prime(std::shared_ptr<const serve::BankGeneration> generation) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ever_built_) return;
  }
  (void)Acquire(std::move(generation));
}

}  // namespace infoflow::seedmax
