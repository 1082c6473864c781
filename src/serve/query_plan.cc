#include "serve/query_plan.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <utility>

#include "graph/bit_transpose.h"
#include "graph/strip_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/convergence.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-query-kind latency instruments: a log-bucketed histogram (constant
/// relative quantile error from 50 µs to 10 s) plus p50/p95/p99 gauges
/// refreshed from it after every batch that answers that kind.
struct KindLatency {
  obs::Histogram* hist;
  obs::Gauge* p50;
  obs::Gauge* p95;
  obs::Gauge* p99;
};

KindLatency MakeKindLatency(const char* kind) {
  const std::string base = std::string("serve.query.latency_ms.") + kind;
  return {&obs::GetHistogram(base, obs::LogBuckets(0.05, 10000.0, 3)),
          &obs::GetGauge(base + ".p50"), &obs::GetGauge(base + ".p95"),
          &obs::GetGauge(base + ".p99")};
}

/// The serve.query.* instruments.
struct PlanMetrics {
  obs::Counter* batches = &obs::GetCounter("serve.query.batches_total");
  obs::Counter* requests = &obs::GetCounter("serve.query.requests_total");
  obs::Counter* rows_scanned =
      &obs::GetCounter("serve.query.rows_scanned_total");
  obs::Counter* frontier_merged =
      &obs::GetCounter("serve.query.frontier_merged_total");
  obs::Counter* deadline_exceeded =
      &obs::GetCounter("serve.query.deadline_exceeded_total");
  obs::Counter* conditional_floor =
      &obs::GetCounter("serve.query.conditional_floor_total");
  obs::Histogram* batch_size = &obs::GetHistogram(
      "serve.query.batch_size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  obs::Histogram* group_size = &obs::GetHistogram(
      "serve.query.group_size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  obs::Histogram* latency_ms = &obs::GetHistogram(
      "serve.query.latency_ms",
      {0.1, 0.5, 2.5, 10.0, 50.0, 250.0, 1000.0, 5000.0});
  /// Indexed by static_cast<std::size_t>(QueryKind).
  KindLatency kind_latency[3] = {MakeKindLatency("flow"),
                                 MakeKindLatency("community"),
                                 MakeKindLatency("joint")};

  static PlanMetrics& Get() {
    static PlanMetrics metrics;
    return metrics;
  }
};

/// Set bits of `words[r/64] & mask[r/64]` over rows [begin, end); a null
/// mask counts every row of `words`.
std::size_t CountRows(const std::uint64_t* words, const std::uint64_t* mask,
                      std::size_t begin, std::size_t end) {
  std::size_t count = 0;
  for (std::size_t w = begin / 64; w * 64 < end; ++w) {
    std::uint64_t bits = words[w] & (mask != nullptr ? mask[w] : ~0ULL);
    if (w * 64 < begin) bits &= ~0ULL << (begin % 64);
    if ((w + 1) * 64 > end) bits &= ~(~0ULL << (end % 64));
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  return count;
}

/// The row just past the `n`-th set bit of `mask` at or after row `begin`
/// (`begin` itself when n = 0; the caller guarantees n bits exist).
std::size_t RowAfterNth(const std::uint64_t* mask, std::size_t begin,
                        std::size_t n) {
  if (n == 0) return begin;
  std::size_t w = begin / 64;
  std::uint64_t bits = mask[w] & (~0ULL << (begin % 64));
  for (;;) {
    const auto in_word = static_cast<std::size_t>(std::popcount(bits));
    if (in_word >= n) {
      for (; n > 1; --n) bits &= bits - 1;
      return w * 64 + static_cast<std::size_t>(std::countr_zero(bits)) + 1;
    }
    n -= in_word;
    bits = mask[++w];
  }
}

/// One split-R̂ half of a row stream within a row set (every row, or one
/// conditioning set's survivors): rows [begin, end), holding `rows` rows of
/// the set.
struct StreamHalf {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t rows = 0;
};

/// Both halves of every row stream, stream by stream: stream k (rows
/// [k·R, (k+1)·R)) with n_k rows in the set splits into its first ⌊n_k/2⌋
/// and next ⌊n_k/2⌋ of them — the split ComputeChainDiagnostics applies to
/// a sequence of n_k draws. A null mask is the set of every row.
std::vector<StreamHalf> SplitStreams(const BankGeneration& bank,
                                     const std::uint64_t* mask) {
  std::vector<StreamHalf> halves;
  const std::size_t per = bank.rows_per_chain();
  for (std::size_t k = 0; k < bank.num_chains(); ++k) {
    const std::size_t begin = k * per;
    std::size_t h = per / 2;
    std::size_t mid = begin + h;
    std::size_t end = mid + h;
    if (mask != nullptr) {
      h = CountRows(mask, nullptr, begin, begin + per) / 2;
      mid = RowAfterNth(mask, begin, h);
      end = RowAfterNth(mask, mid, h);
    }
    halves.push_back({begin, mid, h});
    halves.push_back({mid, end, h});
  }
  return halves;
}

/// One distinct conditioning set within a batch: its row mask is computed
/// once and shared by every query conditioning on it.
struct GivenSet {
  std::size_t key = 0;
  /// Sorted canonical copy, for order-insensitive equality.
  FlowConditions sorted;
  /// The conditions as first seen (for row evaluation; order irrelevant).
  FlowConditions conditions;
  /// mask[b] bit s = 1 iff row 64·b + s satisfies every condition. One
  /// word per bank block, bits always within the block's lane mask.
  std::vector<std::uint64_t> mask;
  std::size_t survivors = 0;
  /// Where each row stream's split-R̂ halves lie among the survivors.
  std::vector<StreamHalf> halves;
  /// Latest member deadline — the mask scan runs while any member has time.
  Clock::time_point deadline = Clock::time_point::max();
  bool expired = false;
};

/// One row scan: either a merged source frontier answering several
/// kFlow/kCommunity queries, or a single kJoint query.
struct ScanGroup {
  /// Sorted-unique source set (empty for joint groups).
  std::vector<NodeId> sources;
  /// Union of member sinks, sorted-unique (frontier groups).
  std::vector<NodeId> sinks;
  /// The joint request's flows (joint groups).
  FlowConditions flows;
  bool joint = false;
  /// Index into the batch's given-set table; SIZE_MAX → unconditional.
  std::size_t given_index = 0;
  /// Request indices answered by this scan.
  std::vector<std::size_t> members;
  Clock::time_point deadline = Clock::time_point::max();
  /// Per-sink indicator bitmaps: word [s·num_blocks + b] bit l = sink s
  /// reached in row 64·b + l (frontier groups; s indexes `sinks`). Joint
  /// groups use one bitmap: word [b] bit l = all flows hold in row 64·b+l.
  std::vector<std::uint64_t> indicators;
  bool expired = false;
};

FlowConditions SortedConditions(FlowConditions conditions) {
  std::sort(conditions.begin(), conditions.end(),
            [](const FlowConstraint& a, const FlowConstraint& b) {
              if (a.source != b.source) return a.source < b.source;
              if (a.sink != b.sink) return a.sink < b.sink;
              return a.must_flow < b.must_flow;
            });
  return conditions;
}

std::vector<NodeId> SortedUnique(std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

/// True when every condition holds in the packed row (scalar path).
bool RowSatisfies(const DirectedGraph& graph, const std::uint64_t* row,
                  const FlowConditions& conditions,
                  ReachabilityWorkspace& workspace,
                  std::vector<NodeId>& source_scratch) {
  for (const FlowConstraint& c : conditions) {
    source_scratch[0] = c.source;
    const bool flows =
        workspace.RunUntilPacked(graph, source_scratch, row, c.sink);
    if (flows != c.must_flow) return false;
  }
  return true;
}

}  // namespace

BlockOps::BlockOps(
    const DirectedGraph& graph, const BankGeneration& bank, bool batch_bfs,
    std::vector<ReachabilityWorkspace>& workspaces,
    std::vector<BatchReachabilityWorkspace>& batch_workspaces,
    const StripPlane* strip_plane,
    std::vector<std::unique_ptr<StripWorkspace>>& strip_workspaces)
    : graph_(graph),
      bank_(bank),
      batch_bfs_(batch_bfs),
      workspaces_(workspaces),
      batch_workspaces_(batch_workspaces),
      strip_plane_(strip_plane),
      strip_workspaces_(strip_workspaces),
      row_scratch_(workspaces.size()) {}

const std::uint64_t* BlockOps::UnpackBlockRows(std::size_t worker,
                                               std::size_t block) {
  // One 64×64 transpose per 64-edge column turns the block's edge words
  // into the packed rows ReachabilityWorkspace::RunPacked reads: row s of
  // the block starts at word s·PackedRowWords(num_edges).
  const std::size_t num_edges = bank_.num_edges();
  const std::size_t words_per_row = PackedRowWords(num_edges);
  std::vector<std::uint64_t>& rows = row_scratch_[worker];
  rows.resize(64 * words_per_row);
  const std::uint64_t* plane = bank_.BlockEdgeWords(block);
  std::uint64_t tile[64];
  for (std::size_t w = 0; w < words_per_row; ++w) {
    const std::size_t e0 = w * 64;
    const std::size_t cols = std::min<std::size_t>(64, num_edges - e0);
    for (std::size_t j = 0; j < 64; ++j) tile[j] = j < cols ? plane[e0 + j] : 0;
    Transpose64x64(tile);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      rows[lane * words_per_row + w] = tile[lane];
    }
  }
  return rows.data();
}

std::uint64_t BlockOps::BlockConditions(std::size_t worker, std::size_t block,
                                        const FlowConditions& conditions,
                                        std::uint64_t lanes) {
  std::vector<NodeId> src(1);
  if (batch_bfs_) {
    // Each constraint's BFS runs only over the still-live lanes, so every
    // dropped row makes the remaining constraints cheaper (blockwise
    // I(x, C) of Eq. 7–8).
    const std::uint64_t* words = bank_.BlockEdgeWords(block);
    BatchReachabilityWorkspace& ws = batch_workspaces_[worker];
    for (const FlowConstraint& c : conditions) {
      if (lanes == 0) break;
      src[0] = c.source;
      const std::uint64_t reached =
          ws.RunUntil(graph_, src, words, c.sink, lanes);
      lanes = c.must_flow ? reached : lanes & ~reached;
    }
    return lanes;
  }
  ReachabilityWorkspace& ws = workspaces_[worker];
  const std::uint64_t* rows = UnpackBlockRows(worker, block);
  const std::size_t words_per_row = PackedRowWords(bank_.num_edges());
  std::uint64_t word = 0;
  for (std::size_t lane = 0; lane < 64; ++lane) {
    if ((lanes >> lane & 1) == 0) continue;
    if (RowSatisfies(graph_, rows + lane * words_per_row, conditions, ws,
                     src)) {
      word |= std::uint64_t{1} << lane;
    }
  }
  return word;
}

void BlockOps::BlockReach(std::size_t worker, std::size_t block,
                          const std::vector<NodeId>& sources,
                          std::uint64_t lanes,
                          const std::vector<NodeId>& sinks,
                          std::uint64_t* out) {
  if (batch_bfs_) {
    BatchReachabilityWorkspace& ws = batch_workspaces_[worker];
    ws.Run(graph_, sources, bank_.BlockEdgeWords(block), lanes);
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      out[s] = ws.ReachedMask(sinks[s]);
    }
    return;
  }
  ReachabilityWorkspace& ws = workspaces_[worker];
  std::fill(out, out + sinks.size(), 0);
  const std::uint64_t* rows = UnpackBlockRows(worker, block);
  const std::size_t words_per_row = PackedRowWords(bank_.num_edges());
  for (std::size_t lane = 0; lane < 64; ++lane) {
    if ((lanes >> lane & 1) == 0) continue;
    const std::uint64_t bit = std::uint64_t{1} << lane;
    ws.RunPacked(graph_, sources, rows + lane * words_per_row);
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      if (ws.IsReached(sinks[s])) out[s] |= bit;
    }
  }
}

void BlockOps::StripConditions(std::size_t worker, std::size_t strip,
                               const FlowConditions& conditions,
                               std::uint64_t* lanes) {
  if (strip_plane_ == nullptr) {
    lanes[0] = BlockConditions(worker, strip, conditions, lanes[0]);
    return;
  }
  const unsigned wn = strip_plane_->width;
  StripWorkspace& ws = *strip_workspaces_[worker];
  std::vector<NodeId> src(1);
  std::uint64_t reached[kMaxStripWords];
  for (const FlowConstraint& c : conditions) {
    std::uint64_t live = 0;
    for (unsigned w = 0; w < wn; ++w) live |= lanes[w];
    if (live == 0) break;
    src[0] = c.source;
    ws.RunUntil(graph_, src, strip_plane_->StripWords(strip), c.sink, lanes,
                reached);
    for (unsigned w = 0; w < wn; ++w) {
      lanes[w] = c.must_flow ? reached[w] : lanes[w] & ~reached[w];
    }
  }
}

void BlockOps::StripReach(std::size_t worker, std::size_t strip,
                          const std::vector<NodeId>& sources,
                          const std::uint64_t* lanes,
                          const std::vector<NodeId>& sinks,
                          std::uint64_t* out) {
  if (strip_plane_ == nullptr) {
    BlockReach(worker, strip, sources, lanes[0], sinks, out);
    return;
  }
  const unsigned wn = strip_plane_->width;
  StripWorkspace& ws = *strip_workspaces_[worker];
  if (sinks.size() == 1) {
    // One sink: meet it in the middle instead of closing the sources'
    // whole forward reach.
    ws.RunUntil(graph_, sources, strip_plane_->StripWords(strip), sinks[0],
                lanes, out);
    return;
  }
  ws.Run(graph_, sources, strip_plane_->StripWords(strip), lanes);
  for (std::size_t s = 0; s < sinks.size(); ++s) {
    const std::uint64_t* mask = ws.ReachedMask(sinks[s]);
    for (unsigned w = 0; w < wn; ++w) out[s * wn + w] = mask[w];
  }
}

void KindLatencyRecorder::Record(QueryKind kind, double latency_ms) {
  if constexpr (obs::MetricsEnabled()) {
    const auto k = static_cast<std::size_t>(kind);
    if (k >= 3) return;
    recorded_[k] = true;
    PlanMetrics::Get().kind_latency[k].hist->Record(latency_ms);
  }
}

void KindLatencyRecorder::Publish() const {
  if constexpr (obs::MetricsEnabled()) {
    PlanMetrics& metrics = PlanMetrics::Get();
    for (std::size_t k = 0; k < 3; ++k) {
      if (!recorded_[k]) continue;
      const obs::HistogramSnapshot snap =
          metrics.kind_latency[k].hist->Snapshot();
      metrics.kind_latency[k].p50->Set(snap.Quantile(0.50));
      metrics.kind_latency[k].p95->Set(snap.Quantile(0.95));
      metrics.kind_latency[k].p99->Set(snap.Quantile(0.99));
    }
  }
}

Status ValidateQueryRequest(const DirectedGraph& graph,
                            const QueryRequest& request) {
  const NodeId n = graph.num_nodes();
  if (request.timeout_ms < 0.0) {
    return Status::InvalidArgument("timeout_ms must be >= 0, got ",
                                   request.timeout_ms);
  }
  IF_RETURN_NOT_OK(ValidateConditions(graph, request.given));
  if (request.kind == QueryKind::kJoint) {
    if (request.flows.empty()) {
      return Status::InvalidArgument("joint query needs at least one flow");
    }
    return ValidateConditions(graph, request.flows);
  }
  if (request.sources.empty()) {
    return Status::InvalidArgument(QueryKindName(request.kind),
                                   " query needs at least one source");
  }
  if (request.sinks.empty()) {
    return Status::InvalidArgument(QueryKindName(request.kind),
                                   " query needs at least one sink");
  }
  if (request.kind == QueryKind::kFlow && request.sinks.size() != 1) {
    return Status::InvalidArgument("flow query takes exactly one sink, got ",
                                   request.sinks.size(),
                                   " (use kind=community)");
  }
  // Out-of-range endpoints are rejected here, with a descriptive Status the
  // caller can surface — the BFS workspaces never see an unvalidated id, so
  // their internal IF_CHECKs cannot abort a release serve build on bad
  // client input.
  for (const NodeId s : request.sources) {
    if (s >= n) return Status::OutOfRange("source ", s, " >= n=", n);
  }
  for (const NodeId s : request.sinks) {
    if (s >= n) return Status::OutOfRange("sink ", s, " >= n=", n);
  }
  return Status::OK();
}

std::vector<QueryResult> RunQueryPlan(
    const DirectedGraph& graph, const BankGeneration& bank,
    const std::vector<QueryRequest>& requests, const QueryPlanOptions& options,
    ThreadPool& pool, BlockOps& ops) {
  // The batch span carries the first stamped query id so a one-query batch
  // (the common interactive case) traces as a single connected tree.
  std::uint64_t batch_query_id = 0;
  for (const QueryRequest& request : requests) {
    if (request.query_id != 0) {
      batch_query_id = request.query_id;
      break;
    }
  }
  obs::TraceSpan span("serve/answer_batch", batch_query_id);
  WallTimer timer;
  PlanMetrics& metrics = PlanMetrics::Get();
  const Clock::time_point entry = Clock::now();
  IF_CHECK(bank.num_edges() == graph.num_edges())
      << "bank rows were drawn from a different graph";

  metrics.batches->Increment();
  metrics.requests->Increment(requests.size());
  metrics.batch_size->Record(static_cast<double>(requests.size()));

  const std::size_t num_rows = bank.num_rows();
  const std::size_t num_blocks = bank.num_blocks();
  std::vector<QueryResult> results(requests.size());
  std::vector<Clock::time_point> deadlines(requests.size(),
                                           Clock::time_point::max());
  // Sources are canonicalized (sorted, deduplicated) once per request, up
  // front: frontier grouping compares the canonical sets, and both BFS
  // paths receive duplicate-free source lists instead of leaning on the
  // per-run visited check to drop repeats.
  std::vector<std::vector<NodeId>> canonical_sources(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    results[i].total_rows = num_rows;
    results[i].generation = bank.id();
    results[i].model_epoch = bank.model_epoch();
    results[i].status = ValidateQueryRequest(graph, requests[i]);
    if (results[i].status.ok() && requests[i].kind != QueryKind::kJoint) {
      canonical_sources[i] = SortedUnique(requests[i].sources);
    }
    if (requests[i].timeout_ms > 0.0) {
      deadlines[i] =
          entry + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          requests[i].timeout_ms));
    }
  }

  // --- Distinct conditioning sets: one row mask each, shared batch-wide.
  std::vector<GivenSet> given_sets;
  // SIZE_MAX sentinel: unconditional.
  constexpr std::size_t kUnconditional = static_cast<std::size_t>(-1);
  std::vector<std::size_t> given_of(requests.size(), kUnconditional);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].status.ok() || requests[i].given.empty()) continue;
    const std::size_t key = HashConditions(requests[i].given);
    FlowConditions sorted = SortedConditions(requests[i].given);
    std::size_t g = given_sets.size();
    for (std::size_t j = 0; j < given_sets.size(); ++j) {
      if (given_sets[j].key == key && given_sets[j].sorted == sorted) {
        g = j;
        break;
      }
    }
    if (g == given_sets.size()) {
      GivenSet set;
      set.key = key;
      set.sorted = std::move(sorted);
      set.conditions = requests[i].given;
      set.mask.assign(num_blocks, 0);
      set.deadline = deadlines[i];
      given_sets.push_back(std::move(set));
    } else {
      // The shared mask scan runs while *any* member still has time; a
      // member whose own deadline lapses is failed individually afterwards.
      given_sets[g].deadline = std::max(given_sets[g].deadline, deadlines[i]);
    }
    given_of[i] = g;
  }

  // Workers partition whole strips of W consecutive blocks, so
  // mask/indicator words are never shared between tasks — the scalar path
  // writes single bits into the same words the batch path fills 64·W at a
  // time.
  const unsigned strip_words = ops.StripWords();
  IF_CHECK_LE(strip_words, kMaxStripWords);
  const std::size_t num_strips = (num_blocks + strip_words - 1) / strip_words;
  const std::size_t num_tasks = pool.size();
  const auto task_range = [&](std::size_t t) {
    const std::size_t per = (num_strips + num_tasks - 1) / num_tasks;
    const std::size_t begin = std::min(t * per, num_strips);
    return std::pair<std::size_t, std::size_t>(
        begin, std::min(begin + per, num_strips));
  };
  const std::size_t strips_per_check = std::max<std::size_t>(
      1, options.rows_per_task / (std::size_t{64} * strip_words));

  for (GivenSet& set : given_sets) {
    obs::TraceSpan mask_span("serve/plan/given_mask", batch_query_id);
    std::atomic<bool> expired{false};
    std::vector<std::size_t> partial(num_tasks, 0);
    ParallelFor(pool, num_tasks, [&](std::size_t t) {
      const auto [begin, end] = task_range(t);
      std::size_t count = 0;
      std::uint64_t lanes[kMaxStripWords];
      for (std::size_t s = begin; s < end; ++s) {
        if ((s - begin) % strips_per_check == 0 &&
            (expired.load(std::memory_order_relaxed) ||
             Clock::now() > set.deadline)) {
          expired.store(true, std::memory_order_relaxed);
          return;
        }
        const std::size_t b0 = s * strip_words;
        const std::size_t bn =
            std::min<std::size_t>(strip_words, num_blocks - b0);
        for (std::size_t w = 0; w < strip_words; ++w) {
          lanes[w] = w < bn ? bank.BlockLaneMask(b0 + w) : 0;
        }
        ops.StripConditions(t, s, set.conditions, lanes);
        for (std::size_t w = 0; w < bn; ++w) {
          set.mask[b0 + w] = lanes[w];
          count += static_cast<std::size_t>(std::popcount(lanes[w]));
        }
      }
      partial[t] = count;
    });
    set.expired = expired.load();
    for (const std::size_t c : partial) set.survivors += c;
    if (!set.expired) set.halves = SplitStreams(bank, set.mask.data());
    metrics.rows_scanned->Increment(num_rows);
  }

  // --- Conditional floor and given-set deadline, per request.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].status.ok() || given_of[i] == kUnconditional) continue;
    const GivenSet& set = given_sets[given_of[i]];
    if (set.expired) {
      results[i].status = Status::DeadlineExceeded(
          "query ", requests[i].id, " exceeded its ", requests[i].timeout_ms,
          " ms deadline while filtering rows by C");
      metrics.deadline_exceeded->Increment();
      continue;
    }
    results[i].effective_rows = set.survivors;
    if (set.survivors == 0 || set.survivors < options.min_conditional_rows) {
      results[i].status = Status::FailedPrecondition(
          "conditional query ", requests[i].id, ": only ", set.survivors,
          " of ", num_rows, " bank rows satisfy the conditioning set (floor ",
          options.min_conditional_rows,
          "); widen the bank or relax the conditions");
      metrics.conditional_floor->Increment();
    }
  }

  // --- Group surviving requests into row scans.
  std::vector<ScanGroup> groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].status.ok()) continue;
    const QueryRequest& request = requests[i];
    if (request.kind == QueryKind::kJoint) {
      ScanGroup group;
      group.joint = true;
      group.flows = request.flows;
      group.given_index = given_of[i];
      group.members.push_back(i);
      group.deadline = deadlines[i];
      groups.push_back(std::move(group));
      continue;
    }
    const std::vector<NodeId>& sources = canonical_sources[i];
    std::size_t g = groups.size();
    for (std::size_t j = 0; j < groups.size(); ++j) {
      if (!groups[j].joint && groups[j].sources == sources &&
          groups[j].given_index == given_of[i]) {
        g = j;
        break;
      }
    }
    if (g == groups.size()) {
      ScanGroup group;
      group.sources = sources;
      group.given_index = given_of[i];
      group.deadline = deadlines[i];
      groups.push_back(std::move(group));
    } else {
      groups[g].deadline = std::max(groups[g].deadline, deadlines[i]);
    }
    groups[g].members.push_back(i);
    groups[g].sinks.insert(groups[g].sinks.end(), request.sinks.begin(),
                           request.sinks.end());
  }

  // --- Scan each group's rows in parallel.
  for (ScanGroup& group : groups) {
    const std::uint64_t group_query_id =
        group.members.empty() ? batch_query_id
                              : requests[group.members.front()].query_id;
    obs::TraceSpan group_span("serve/plan/scan_group", group_query_id);
    metrics.group_size->Record(static_cast<double>(group.members.size()));
    if (group.members.size() > 1) {
      metrics.frontier_merged->Increment(group.members.size() - 1);
    }
    group.sinks = SortedUnique(group.sinks);
    const std::size_t num_sinks = group.joint ? 1 : group.sinks.size();
    group.indicators.assign(num_sinks * num_blocks, 0);
    const std::uint64_t* mask = group.given_index == kUnconditional
                                    ? nullptr
                                    : given_sets[group.given_index].mask.data();
    std::atomic<bool> expired{false};
    ParallelFor(pool, num_tasks, [&](std::size_t t) {
      const auto [begin, end] = task_range(t);
      std::vector<std::uint64_t> out(group.sinks.size() * strip_words);
      std::uint64_t lanes[kMaxStripWords];
      for (std::size_t s = begin; s < end; ++s) {
        if ((s - begin) % strips_per_check == 0 &&
            (expired.load(std::memory_order_relaxed) ||
             Clock::now() > group.deadline)) {
          expired.store(true, std::memory_order_relaxed);
          return;
        }
        // Conditional scans only visit the surviving lanes; a strip with
        // no survivors in any of its blocks is skipped outright (dead
        // blocks inside a live strip ride along with all-zero lane words
        // and contribute all-zero indicators, exactly like a skip).
        const std::size_t b0 = s * strip_words;
        const std::size_t bn =
            std::min<std::size_t>(strip_words, num_blocks - b0);
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < strip_words; ++w) {
          lanes[w] = w < bn ? (mask != nullptr ? mask[b0 + w]
                                               : bank.BlockLaneMask(b0 + w))
                            : 0;
          any |= lanes[w];
        }
        if (any == 0) continue;
        if (group.joint) {
          ops.StripConditions(t, s, group.flows, lanes);
          for (std::size_t w = 0; w < bn; ++w) {
            group.indicators[b0 + w] = lanes[w];
          }
        } else {
          ops.StripReach(t, s, group.sources, lanes, group.sinks, out.data());
          for (std::size_t c = 0; c < group.sinks.size(); ++c) {
            for (std::size_t w = 0; w < bn; ++w) {
              group.indicators[c * num_blocks + b0 + w] =
                  out[c * strip_words + w];
            }
          }
        }
      }
    });
    group.expired = expired.load();
    metrics.rows_scanned->Increment(num_rows);
  }

  // --- Assemble per-request estimates from indicator popcounts. Rows are
  // i.i.d., so a sink's value, binomial MCSE and ESS need only its count
  // among the survivors; split-R̂ needs the counts in each stream's halves.
  obs::TraceSpan assemble_span("serve/plan/assemble", batch_query_id);
  const std::vector<StreamHalf> all_rows = SplitStreams(bank, nullptr);
  std::vector<HalfCount> half_counts;
  for (const ScanGroup& group : groups) {
    const bool conditional = group.given_index != kUnconditional;
    const std::uint64_t* mask =
        conditional ? given_sets[group.given_index].mask.data() : nullptr;
    const std::size_t survivors =
        conditional ? given_sets[group.given_index].survivors : num_rows;
    const std::vector<StreamHalf>& halves =
        conditional ? given_sets[group.given_index].halves : all_rows;
    for (const std::size_t i : group.members) {
      const QueryRequest& request = requests[i];
      if (group.expired || Clock::now() > deadlines[i]) {
        results[i].status = Status::DeadlineExceeded(
            "query ", request.id, " exceeded its ", request.timeout_ms,
            " ms deadline");
        metrics.deadline_exceeded->Increment();
        continue;
      }
      results[i].effective_rows = survivors;
      results[i].frontier_shared = group.members.size() > 1;
      const auto estimate_column = [&](std::size_t column, NodeId sink) {
        const std::uint64_t* ind =
            group.indicators.data() + column * num_blocks;
        half_counts.clear();
        for (const StreamHalf& half : halves) {
          half_counts.push_back(
              {half.rows, CountRows(ind, mask, half.begin, half.end)});
        }
        const std::size_t ones = CountRows(ind, mask, 0, num_rows);
        SinkEstimate est;
        est.sink = sink;
        est.value = static_cast<double>(ones) / static_cast<double>(survivors);
        est.diagnostics = BinaryCountDiagnostics(ones, survivors, half_counts);
        return est;
      };
      if (group.joint) {
        results[i].estimates.push_back(
            estimate_column(0, request.flows.front().sink));
      } else {
        for (const NodeId sink : request.sinks) {
          const auto it = std::lower_bound(group.sinks.begin(),
                                           group.sinks.end(), sink);
          const std::size_t column =
              static_cast<std::size_t>(it - group.sinks.begin());
          results[i].estimates.push_back(estimate_column(column, sink));
        }
      }
    }
  }

  // --- Stamp the batch latency onto every result and refresh the per-kind
  // latency quantile gauges.
  const double batch_ms = timer.Millis();
  for (QueryResult& result : results) result.latency_ms = batch_ms;
  metrics.latency_ms->Record(batch_ms);
  // One sample per kind the batch answered (batch attribution).
  KindLatencyRecorder kinds;
  bool seen[3] = {false, false, false};
  for (const QueryRequest& request : requests) {
    const auto k = static_cast<std::size_t>(request.kind);
    if (k >= 3 || seen[k]) continue;
    seen[k] = true;
    kinds.Record(request.kind, batch_ms);
  }
  kinds.Publish();
  return results;
}

}  // namespace infoflow::serve
