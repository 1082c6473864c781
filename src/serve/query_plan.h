/// \file query_plan.h
/// \brief The batch query skeleton behind QueryEngine::AnswerBatch.
///
/// Everything about answering a batch *except* per-strip reachability is
/// pure bookkeeping over the bank's row/lane layout: request validation,
/// deduplicating conditioning sets into shared row masks (Eq. 7–8),
/// enforcing the conditional floor, merging same-source frontiers into one
/// scan, per-query deadlines, and assembling estimates + split-R̂/ESS/MCSE
/// diagnostics from the indicator bitmaps. RunQueryPlan owns that skeleton;
/// BlockOps answers its two questions about one strip of bank rows.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/flow_query.h"
#include "graph/batch_reachability.h"
#include "graph/graph.h"
#include "graph/reachability.h"
#include "graph/strip_plane.h"
#include "graph/strip_reachability.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace infoflow::serve {

/// \brief Per-strip reachability over one bank generation.
///
/// A strip is W consecutive 64-row blocks. With a strip plane (W = 4 or 8,
/// graph/strip_plane.h) every pass replays the generation's interleaved
/// W-word plane through one StripWorkspace per pool worker, so one BFS
/// amortizes over 64·W rows. A pass with one sink — a flow, an Eq. 7–8
/// condition, one flow of a joint query — meets in the middle
/// (StripWorkspace::RunUntil); a pass with several runs forward to the
/// fixpoint (Run), which answers every sink at once. The scan group's sink
/// count alone picks. Without a strip plane, W = 1: a pass reads the bank's
/// edge-major block through one BatchReachabilityWorkspace per worker, or,
/// when `batch_bfs` is false, unpacks the block into packed rows in a
/// per-worker scratch and replays each row through the scalar
/// ReachabilityWorkspace reference (the `--scalar-reachability` path).
/// Every path yields the same lane masks bit for bit.
///
/// Methods are called concurrently from pool workers; `worker` <
/// pool.size() indexes the per-worker workspaces. Strips are partitioned
/// between workers, so no strip is touched by two workers at once.
class BlockOps {
 public:
  /// The workspace vectors hold one entry per pool worker; strip
  /// workspaces must already be created at `strip_plane->width` when a
  /// strip plane is given.
  BlockOps(const DirectedGraph& graph, const BankGeneration& bank,
           bool batch_bfs, std::vector<ReachabilityWorkspace>& workspaces,
           std::vector<BatchReachabilityWorkspace>& batch_workspaces,
           const StripPlane* strip_plane,
           std::vector<std::unique_ptr<StripWorkspace>>& strip_workspaces);

  /// 64-row blocks answered per pass: the strip plane's width, else 1.
  unsigned StripWords() const {
    return strip_plane_ != nullptr ? strip_plane_->width : 1;
  }

  /// Rows of `strip` whose pseudo-states satisfy every condition: the
  /// blockwise conditional indicator I(x, C) of Eq. 7–8, one meet search
  /// per condition over the lanes still live. `lanes` is an
  /// in/out span of StripWords() words covering blocks [strip·W,
  /// strip·W+W) in block order (words past the bank's last block are
  /// zero); on entry each word holds its block's candidate lanes, on
  /// return the surviving ones.
  void StripConditions(std::size_t worker, std::size_t strip,
                       const FlowConditions& conditions, std::uint64_t* lanes);

  /// Reachability from the (sorted-unique) `sources` in each lane of
  /// `strip` restricted to `lanes`: writes out[s·W + w] = the lanes of
  /// block strip·W+w in which sinks[s] is reached. `sinks` is
  /// sorted-unique; a single sink is met in the middle.
  void StripReach(std::size_t worker, std::size_t strip,
                  const std::vector<NodeId>& sources,
                  const std::uint64_t* lanes, const std::vector<NodeId>& sinks,
                  std::uint64_t* out);

 private:
  /// The W = 1 passes over one 64-row block.
  std::uint64_t BlockConditions(std::size_t worker, std::size_t block,
                                const FlowConditions& conditions,
                                std::uint64_t lanes);
  void BlockReach(std::size_t worker, std::size_t block,
                  const std::vector<NodeId>& sources, std::uint64_t lanes,
                  const std::vector<NodeId>& sinks, std::uint64_t* out);
  /// Block `block`'s 64 rows as packed rows (graph/reachability.h's
  /// RunPacked layout) in `worker`'s scratch; lanes past the bank's last
  /// row unpack as all-inactive rows.
  const std::uint64_t* UnpackBlockRows(std::size_t worker, std::size_t block);

  const DirectedGraph& graph_;
  const BankGeneration& bank_;
  const bool batch_bfs_;
  std::vector<ReachabilityWorkspace>& workspaces_;
  std::vector<BatchReachabilityWorkspace>& batch_workspaces_;
  const StripPlane* strip_plane_;
  std::vector<std::unique_ptr<StripWorkspace>>& strip_workspaces_;
  /// Per-worker packed-row scratch of the scalar path.
  std::vector<std::vector<std::uint64_t>> row_scratch_;
};

/// \brief The skeleton knobs, mirrored from QueryEngineOptions.
struct QueryPlanOptions {
  std::size_t min_conditional_rows = 32;
  std::size_t rows_per_task = 256;
};

/// \brief Feeds the per-kind latency instruments: the log-bucketed
/// `serve.query.latency_ms.<kind>` histogram and its `.p50/.p95/.p99`
/// gauges. Record() adds one sample; Publish() refreshes the gauges of
/// every kind recorded since construction, once per batch rather than per
/// sample. Inert under INFOFLOW_NO_METRICS.
class KindLatencyRecorder {
 public:
  void Record(QueryKind kind, double latency_ms);
  void Publish() const;

 private:
  bool recorded_[3] = {false, false, false};
};

/// \brief Validates a request against `graph`: out-of-range endpoints and
/// malformed shapes come back as descriptive Statuses before any BFS
/// workspace can see them.
Status ValidateQueryRequest(const DirectedGraph& graph,
                            const QueryRequest& request);

/// \brief Answers `requests` over `bank` using `ops` for per-strip work.
/// See query_engine.h for the request/result contract; QueryEngine's
/// AnswerBatch runs it over the requests its dispatcher sends to the bank.
std::vector<QueryResult> RunQueryPlan(const DirectedGraph& graph,
                                      const BankGeneration& bank,
                                      const std::vector<QueryRequest>& requests,
                                      const QueryPlanOptions& options,
                                      ThreadPool& pool, BlockOps& ops);

}  // namespace infoflow::serve
