#include "serve/router.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/query_plan.h"
#include "serve/transport.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow::serve {
namespace {

/// \brief BlockOps over the shard views: per-block reachability is the
/// cut-edge frontier-exchange fixpoint described in router.h.
class ShardedOps final : public BlockOps {
 public:
  /// `strip_planes`/`strip_scratch` are non-null only when the batch
  /// resolved a multi-word width (strip_words > 1): strip_planes[s] is
  /// shard s's interleaved W-word plane and strip_scratch[worker][s] its
  /// per-worker workspace, and the Strip* hooks run the same cut-edge
  /// exchange with every lane mask widened to a W-word span.
  ShardedOps(const GraphPartition& partition,
             const std::vector<std::shared_ptr<const ShardView>>& views,
             std::vector<std::vector<BatchReachabilityWorkspace>>& scratch,
             const std::vector<std::shared_ptr<const StripPlane>>* strip_planes,
             std::vector<std::vector<std::unique_ptr<StripWorkspace>>>*
                 strip_scratch,
             unsigned strip_words)
      : partition_(partition),
        views_(views),
        scratch_(scratch),
        strip_planes_(strip_planes),
        strip_scratch_(strip_scratch),
        strip_words_(strip_words),
        dirty_(scratch.size(),
               std::vector<std::uint8_t>(partition.num_shards, 0)),
        src_(scratch.size(), std::vector<NodeId>(1)),
        tallies_(scratch.size()) {
    if constexpr (obs::MetricsEnabled()) {
      batch_begin_ns_ = obs::Tracing::NowNanos();
    }
  }

  /// Registry counters are contended atomics; workers tally locally and
  /// the batch flushes once here (CollectBatchStats normally drains the
  /// tallies first, leaving this a no-op backstop).
  ~ShardedOps() override {
    const BlockOps::BatchStats total = Drain();
    obs::GetCounter("router.cut_frontier_words")
        .Increment(total.cut_frontier_words);
    obs::GetCounter("router.exchange_rounds_total")
        .Increment(total.exchange_rounds);
  }

  void BeginGroup(std::uint64_t query_id) override {
    current_query_id_ = query_id;
  }

  /// Flushes the per-shard replay time into `router.shard_replay_ms.<s>`
  /// histograms (log buckets) with p50/p95/p99 gauges, emits one
  /// "router/shard_replay" span per shard carrying the batch's query id,
  /// and returns the exchange totals for result stamping.
  BlockOps::BatchStats CollectBatchStats() override {
    BlockOps::BatchStats stats = Drain();
    obs::GetCounter("router.cut_frontier_words")
        .Increment(stats.cut_frontier_words);
    obs::GetCounter("router.exchange_rounds_total")
        .Increment(stats.exchange_rounds);
    if constexpr (obs::MetricsEnabled()) {
      for (std::size_t s = 0; s < stats.shard_replay_ms.size(); ++s) {
        const std::string base =
            "router.shard_replay_ms." + std::to_string(s);
        obs::Histogram& hist =
            obs::GetHistogram(base, obs::LogBuckets(0.01, 10000.0, 3));
        hist.Record(stats.shard_replay_ms[s]);
        const obs::HistogramSnapshot snap = hist.Snapshot();
        obs::GetGauge(base + ".p50").Set(snap.Quantile(0.50));
        obs::GetGauge(base + ".p95").Set(snap.Quantile(0.95));
        obs::GetGauge(base + ".p99").Set(snap.Quantile(0.99));
        // Position is approximate (per-shard work interleaves across
        // workers); duration is the accumulated replay time.
        if (obs::Tracing::IsEnabled()) {
          obs::Tracing::ImportSpan(
              "shard/replay/" + std::to_string(s), 1,
              1000 + static_cast<std::uint32_t>(s),
              static_cast<double>(batch_begin_ns_ - 1) / 1000.0,
              stats.shard_replay_ms[s] * 1000.0, current_query_id_);
        }
      }
    }
    return stats;
  }

  std::uint64_t BlockConditions(std::size_t worker, std::size_t block,
                                const FlowConditions& conditions,
                                std::uint64_t lanes) override {
    auto& ws = scratch_[worker];
    std::vector<NodeId>& src = src_[worker];
    if (partition_.num_shards == 1) {
      // N=1 degeneracy: the identity partition makes this exactly the
      // single engine's per-block loop, early exits included.
      const std::uint64_t begin_ns = ReplayClock();
      for (const FlowConstraint& c : conditions) {
        if (lanes == 0) break;
        src[0] = c.source;
        const std::uint64_t reached =
            ws[0].RunUntil(partition_.shards[0].graph, src,
                           views_[0]->BlockWords(block), c.sink, lanes);
        lanes = c.must_flow ? reached : lanes & ~reached;
      }
      AccumulateReplay(worker, 0, begin_ns);
      return lanes;
    }
    for (const FlowConstraint& c : conditions) {
      if (lanes == 0) break;
      src[0] = c.source;
      // The single engine's RunUntil early-exits once the sink's mask
      // saturates `lanes`; running the exchange to its full fixpoint
      // instead reads the same final mask (saturation only stops work the
      // answer no longer depends on), so the lane narrowing is identical.
      Exchange(worker, block, src, lanes);
      const std::uint64_t reached = OwnerMask(ws, c.sink);
      lanes = c.must_flow ? reached : lanes & ~reached;
    }
    return lanes;
  }

  void BlockReach(std::size_t worker, std::size_t block,
                  const std::vector<NodeId>& sources, std::uint64_t lanes,
                  const std::vector<NodeId>& sinks,
                  std::uint64_t* out) override {
    auto& ws = scratch_[worker];
    if (partition_.num_shards == 1) {
      const std::uint64_t begin_ns = ReplayClock();
      ws[0].Run(partition_.shards[0].graph, sources,
                views_[0]->BlockWords(block), lanes);
      AccumulateReplay(worker, 0, begin_ns);
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        out[s] = ws[0].ReachedMask(sinks[s]);
      }
      return;
    }
    Exchange(worker, block, sources, lanes);
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      out[s] = OwnerMask(ws, sinks[s]);
    }
  }

  unsigned StripWords() const override { return strip_words_; }

  void StripConditions(std::size_t worker, std::size_t strip,
                       const FlowConditions& conditions,
                       std::uint64_t* lanes) override {
    if (strip_words_ == 1) {
      BlockOps::StripConditions(worker, strip, conditions, lanes);
      return;
    }
    const unsigned wn = strip_words_;
    auto& ws = (*strip_scratch_)[worker];
    std::vector<NodeId>& src = src_[worker];
    std::uint64_t reached[kMaxStripWords];
    for (const FlowConstraint& c : conditions) {
      std::uint64_t live = 0;
      for (unsigned w = 0; w < wn; ++w) live |= lanes[w];
      if (live == 0) break;
      src[0] = c.source;
      if (partition_.num_shards == 1) {
        const std::uint64_t begin_ns = ReplayClock();
        ws[0]->RunUntil(partition_.shards[0].graph, src,
                        (*strip_planes_)[0]->StripWords(strip), c.sink,
                        lanes, reached);
        AccumulateReplay(worker, 0, begin_ns);
      } else {
        StripExchange(worker, strip, src, lanes);
        const std::uint64_t* mask = OwnerStripMask(ws, c.sink);
        for (unsigned w = 0; w < wn; ++w) reached[w] = mask[w];
      }
      for (unsigned w = 0; w < wn; ++w) {
        lanes[w] = c.must_flow ? reached[w] : lanes[w] & ~reached[w];
      }
    }
  }

  void StripReach(std::size_t worker, std::size_t strip,
                  const std::vector<NodeId>& sources,
                  const std::uint64_t* lanes, const std::vector<NodeId>& sinks,
                  std::uint64_t* out) override {
    if (strip_words_ == 1) {
      BlockOps::StripReach(worker, strip, sources, lanes, sinks, out);
      return;
    }
    const unsigned wn = strip_words_;
    auto& ws = (*strip_scratch_)[worker];
    if (partition_.num_shards == 1) {
      const std::uint64_t begin_ns = ReplayClock();
      ws[0]->Run(partition_.shards[0].graph, sources,
                 (*strip_planes_)[0]->StripWords(strip), lanes);
      AccumulateReplay(worker, 0, begin_ns);
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        const std::uint64_t* mask = ws[0]->ReachedMask(sinks[s]);
        for (unsigned w = 0; w < wn; ++w) out[s * wn + w] = mask[w];
      }
      return;
    }
    StripExchange(worker, strip, sources, lanes);
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      const std::uint64_t* mask = OwnerStripMask(ws, sinks[s]);
      for (unsigned w = 0; w < wn; ++w) out[s * wn + w] = mask[w];
    }
  }

 private:
  struct Tally {
    std::uint64_t cut_words = 0;
    std::uint64_t rounds = 0;
    /// Replay nanoseconds per shard (sized lazily on first use).
    std::vector<std::uint64_t> shard_ns;
  };

  /// One clock read bracketing a whole per-block replay — noise next to
  /// the BFS itself, and compiled out entirely under INFOFLOW_NO_METRICS.
  static std::uint64_t ReplayClock() {
    if constexpr (obs::MetricsEnabled()) {
      return obs::Tracing::NowNanos();
    } else {
      return 0;
    }
  }

  void AccumulateReplay(std::size_t worker, std::size_t shard,
                        std::uint64_t begin_ns) {
    if constexpr (obs::MetricsEnabled()) {
      Tally& tally = tallies_[worker];
      if (tally.shard_ns.empty()) {
        tally.shard_ns.assign(partition_.num_shards, 0);
      }
      tally.shard_ns[shard] += obs::Tracing::NowNanos() - begin_ns;
    } else {
      (void)worker;
      (void)shard;
      (void)begin_ns;
    }
  }

  /// Moves the per-worker tallies into one BatchStats, zeroing them so a
  /// second drain (the destructor backstop) reports nothing.
  BlockOps::BatchStats Drain() {
    BlockOps::BatchStats stats;
    stats.shard_replay_ms.assign(partition_.num_shards, 0.0);
    for (Tally& tally : tallies_) {
      stats.cut_frontier_words += tally.cut_words;
      stats.exchange_rounds += tally.rounds;
      for (std::size_t s = 0; s < tally.shard_ns.size(); ++s) {
        stats.shard_replay_ms[s] +=
            static_cast<double>(tally.shard_ns[s]) / 1e6;
      }
      tally = Tally{};
    }
    return stats;
  }

  /// A node's authoritative mask lives in its owner shard (all its
  /// in-edges are materialized there).
  std::uint64_t OwnerMask(std::vector<BatchReachabilityWorkspace>& ws,
                          NodeId v) const {
    return ws[partition_.shard_of[v]].ReachedMask(partition_.local_of[v]);
  }

  const std::uint64_t* OwnerStripMask(
      std::vector<std::unique_ptr<StripWorkspace>>& ws, NodeId v) const {
    return ws[partition_.shard_of[v]]->ReachedMask(partition_.local_of[v]);
  }

  /// Runs the per-shard propagation / cut-frontier exchange loop for one
  /// block until no shard has pending lanes. Monotone mask growth makes
  /// the fixpoint unique, so sweep order cannot affect the result.
  void Exchange(std::size_t worker, std::size_t block,
                const std::vector<NodeId>& sources, std::uint64_t lanes) {
    std::vector<BatchReachabilityWorkspace>& ws = scratch_[worker];
    const GraphPartition& p = partition_;
    const std::uint32_t num_shards = p.num_shards;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      ws[s].Begin(p.shards[s].graph);
    }
    std::vector<std::uint8_t>& dirty = dirty_[worker];
    std::fill(dirty.begin(), dirty.end(), 0);
    // A source is seeded at its owner and at every ghost copy: its
    // out-edges with a foreign dst live in the dst's shard and relax from
    // the ghost.
    for (const NodeId v : sources) {
      ws[p.shard_of[v]].Seed(p.local_of[v], lanes);
      dirty[p.shard_of[v]] = 1;
      for (EdgeId i = p.ghost_first[v]; i < p.ghost_first[v + 1]; ++i) {
        ws[p.ghost_targets[i]].Seed(p.ghost_locals[i], lanes);
        dirty[p.ghost_targets[i]] = 1;
      }
    }
    std::uint64_t delivered = 0;
    std::uint64_t rounds = 0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      ++rounds;
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        if (dirty[s] == 0) continue;
        dirty[s] = 0;
        progressed = true;
        const std::uint64_t begin_ns = ReplayClock();
        ws[s].Propagate(views_[s]->BlockWords(block));
        // Deliver every touched owned node's mask to its ghost copies;
        // the receiving shard continues from exactly the fresh lanes.
        const ShardGraph& shard = p.shards[s];
        for (const NodeId lv : ws[s].TouchedNodes()) {
          if (lv >= shard.num_owned) continue;
          const NodeId v = shard.node_to_parent[lv];
          EdgeId gi = p.ghost_first[v];
          const EdgeId gend = p.ghost_first[v + 1];
          if (gi == gend) continue;
          const std::uint64_t mask = ws[s].ReachedMask(lv);
          for (; gi < gend; ++gi) {
            const std::uint32_t gs = p.ghost_targets[gi];
            const std::uint64_t fresh =
                mask & ~ws[gs].ReachedMask(p.ghost_locals[gi]);
            if (fresh == 0) continue;
            ws[gs].Seed(p.ghost_locals[gi], fresh);
            dirty[gs] = 1;
            ++delivered;
          }
        }
        AccumulateReplay(worker, s, begin_ns);
      }
    }
    tallies_[worker].cut_words += delivered;
    tallies_[worker].rounds += rounds;
  }

  /// Exchange() with every lane mask widened to a strip_words_-word span:
  /// an owned node that gains lanes in any word of the strip delivers the
  /// per-word fresh delta to its ghost copies. Same unique fixpoint (OR is
  /// monotone per word), so shard answers stay bit-identical to the
  /// single engine at every width.
  void StripExchange(std::size_t worker, std::size_t strip,
                     const std::vector<NodeId>& sources,
                     const std::uint64_t* lanes) {
    auto& ws = (*strip_scratch_)[worker];
    const GraphPartition& p = partition_;
    const std::uint32_t num_shards = p.num_shards;
    const unsigned wn = strip_words_;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      ws[s]->Begin(p.shards[s].graph);
    }
    std::vector<std::uint8_t>& dirty = dirty_[worker];
    std::fill(dirty.begin(), dirty.end(), 0);
    for (const NodeId v : sources) {
      ws[p.shard_of[v]]->Seed(p.local_of[v], lanes);
      dirty[p.shard_of[v]] = 1;
      for (EdgeId i = p.ghost_first[v]; i < p.ghost_first[v + 1]; ++i) {
        ws[p.ghost_targets[i]]->Seed(p.ghost_locals[i], lanes);
        dirty[p.ghost_targets[i]] = 1;
      }
    }
    std::uint64_t delivered = 0;
    std::uint64_t rounds = 0;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      ++rounds;
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        if (dirty[s] == 0) continue;
        dirty[s] = 0;
        progressed = true;
        const std::uint64_t begin_ns = ReplayClock();
        ws[s]->Propagate((*strip_planes_)[s]->StripWords(strip));
        const ShardGraph& shard = p.shards[s];
        for (const NodeId lv : ws[s]->TouchedNodes()) {
          if (lv >= shard.num_owned) continue;
          const NodeId v = shard.node_to_parent[lv];
          EdgeId gi = p.ghost_first[v];
          const EdgeId gend = p.ghost_first[v + 1];
          if (gi == gend) continue;
          const std::uint64_t* mask = ws[s]->ReachedMask(lv);
          for (; gi < gend; ++gi) {
            const std::uint32_t gs = p.ghost_targets[gi];
            const std::uint64_t* ghost = ws[gs]->ReachedMask(p.ghost_locals[gi]);
            std::uint64_t fresh[kMaxStripWords];
            std::uint64_t any = 0;
            for (unsigned w = 0; w < wn; ++w) {
              fresh[w] = mask[w] & ~ghost[w];
              any |= fresh[w];
            }
            if (any == 0) continue;
            ws[gs]->Seed(p.ghost_locals[gi], fresh);
            dirty[gs] = 1;
            // Tally actual words carried, so the cut-traffic counter stays
            // comparable across widths.
            delivered += wn;
          }
        }
        AccumulateReplay(worker, s, begin_ns);
      }
    }
    tallies_[worker].cut_words += delivered;
    tallies_[worker].rounds += rounds;
  }

  const GraphPartition& partition_;
  const std::vector<std::shared_ptr<const ShardView>>& views_;
  std::vector<std::vector<BatchReachabilityWorkspace>>& scratch_;
  const std::vector<std::shared_ptr<const StripPlane>>* strip_planes_;
  std::vector<std::vector<std::unique_ptr<StripWorkspace>>>* strip_scratch_;
  const unsigned strip_words_;
  /// Per-worker scratch, hoisted out of the per-block hot path.
  std::vector<std::vector<std::uint8_t>> dirty_;
  std::vector<std::vector<NodeId>> src_;
  std::vector<Tally> tallies_;
  /// Query id of the scan group currently running (set by BeginGroup from
  /// the plan-driving thread, between parallel scans).
  std::uint64_t current_query_id_ = 0;
  /// Trace-epoch timestamp of batch entry, anchoring the synthetic
  /// per-shard replay spans.
  std::uint64_t batch_begin_ns_ = 1;
};

/// write(2) loop that cannot raise SIGPIPE on sockets (MSG_NOSIGNAL, with
/// a plain-write fallback for pipes — CLI installs SIG_IGN for those).
bool WriteAllQuiet(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t put = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (put < 0 && errno == ENOTSOCK) {
      put = write(fd, data.data() + off, data.size() - off);
    }
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

/// A serialized NDJSON error response for `line`, echoing its request id
/// when the line parses.
std::string ErrorResponseFor(const std::string& line, const Status& status) {
  auto request = ParseRequestLine(line);
  if (!request.ok()) return SerializeParseError(status);
  QueryResult result;
  result.status = status;
  return SerializeResult(*request, result);
}

}  // namespace

ShardedQueryEngine::ShardedQueryEngine(
    std::shared_ptr<const DirectedGraph> graph, std::shared_ptr<ShardSet> shards,
    QueryEngineOptions options)
    : graph_(std::move(graph)),
      shards_(std::move(shards)),
      options_(options),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {
  const GraphPartition& p = shards_->partition();
  scratch_.reserve(pool_->size());
  for (std::size_t t = 0; t < pool_->size(); ++t) {
    std::vector<BatchReachabilityWorkspace> per_shard;
    per_shard.reserve(p.num_shards);
    for (const ShardGraph& shard : p.shards) {
      per_shard.emplace_back(shard.graph);
    }
    scratch_.push_back(std::move(per_shard));
  }
  // Strip scratch stays null until a batch resolves a multi-word width.
  strip_scratch_.resize(pool_->size());
  for (auto& per_shard : strip_scratch_) per_shard.resize(p.num_shards);
}

Result<ShardedQueryEngine> ShardedQueryEngine::Create(
    std::shared_ptr<const DirectedGraph> graph, std::shared_ptr<ShardSet> shards,
    QueryEngineOptions options) {
  IF_CHECK(graph != nullptr) << "null graph";
  IF_CHECK(shards != nullptr) << "null shard set";
  IF_RETURN_NOT_OK(options.Validate());
  if (shards->partition().shard_of.size() != graph->num_nodes()) {
    return Status::InvalidArgument(
        "partition covers ", shards->partition().shard_of.size(),
        " nodes but the graph has ", graph->num_nodes());
  }
  return ShardedQueryEngine(std::move(graph), std::move(shards), options);
}

std::vector<QueryResult> ShardedQueryEngine::AnswerBatch(
    const BankGeneration& bank, const std::vector<QueryRequest>& requests) {
  // The exact dispatch the single engine runs (same class, same options),
  // so shard-vs-single answers stay byte-identical per backend: analytic
  // answers never touch the shard machinery at all.
  std::vector<QueryResult> results(requests.size());
  BackendDispatcher dispatcher(*graph_, options_);
  const std::vector<std::size_t> bank_indices =
      dispatcher.Partition(bank, requests, results);
  if (bank_indices.empty()) {
    BackendDispatcher::Merge(bank_indices, {}, results);
    return results;
  }
  // One consistent cut across shards: all views belong to bank.id(), so a
  // refresh landing mid-batch cannot mix generations between shards.
  const std::vector<std::shared_ptr<const ShardView>> views =
      shards_->AcquireAll(bank);
  // Resolve the replay width exactly like the single engine (same options,
  // same bank, and the *parent* graph's size for the kAuto cache cap — not
  // the smaller per-shard subgraphs — so every shard count lands on the
  // same width) and shard-vs-single answers compare strips to strips at
  // every --lanes setting.
  const unsigned strip_words =
      ResolveStripWords(options_.lanes, bank.num_rows(), graph_->num_nodes(),
                        graph_->num_edges());
  std::vector<std::shared_ptr<const StripPlane>> strip_planes;
  if (strip_words > 1) {
    strip_planes.reserve(views.size());
    for (const auto& view : views) {
      strip_planes.push_back(view->AcquireStripPlane(strip_words, bank));
    }
    const GraphPartition& p = shards_->partition();
    for (auto& per_shard : strip_scratch_) {
      for (std::size_t s = 0; s < per_shard.size(); ++s) {
        if (per_shard[s] == nullptr || per_shard[s]->words() != strip_words) {
          per_shard[s] = StripWorkspace::Create(strip_words,
                                                p.shards[s].graph);
        }
      }
    }
  }
  obs::GetGauge("reach.strip_width").Set(64.0 * strip_words);
  ShardedOps ops(shards_->partition(), views, scratch_,
                 strip_words > 1 ? &strip_planes : nullptr,
                 strip_words > 1 ? &strip_scratch_ : nullptr, strip_words);
  QueryPlanOptions plan;
  plan.min_conditional_rows = options_.min_conditional_rows;
  plan.rows_per_task = options_.rows_per_task;
  if (bank_indices.size() == requests.size()) {
    BackendDispatcher::Merge(bank_indices,
                             RunQueryPlan(*graph_, bank, requests, plan,
                                          *pool_, ops),
                             results);
    return results;
  }
  std::vector<QueryRequest> bank_requests;
  bank_requests.reserve(bank_indices.size());
  for (const std::size_t j : bank_indices) {
    bank_requests.push_back(requests[j]);
  }
  BackendDispatcher::Merge(bank_indices,
                           RunQueryPlan(*graph_, bank, bank_requests, plan,
                                        *pool_, ops),
                           results);
  return results;
}

struct ProcessRouter::Child {
  int fd = -1;
  std::unique_ptr<LineReader> reader;
  bool alive = true;
};

ProcessRouter::ProcessRouter(std::vector<int> child_fds, Options options)
    : options_(options) {
  IF_CHECK(!child_fds.empty()) << "router needs at least one child";
  children_.reserve(child_fds.size());
  for (const int fd : child_fds) {
    Child child;
    child.fd = fd;
    child.reader = std::make_unique<LineReader>(fd);
    children_.push_back(std::move(child));
  }
}

ProcessRouter::~ProcessRouter() {
  for (Child& child : children_) {
    if (child.fd >= 0) close(child.fd);
  }
}

std::size_t ProcessRouter::num_live_children() const {
  std::size_t live = 0;
  for (const Child& child : children_) {
    if (child.alive) ++live;
  }
  return live;
}

void ProcessRouter::MarkChildDead(std::size_t k) {
  if (!children_[k].alive) return;
  children_[k].alive = false;
  obs::GetCounter("router.child_failures_total").Increment();
  obs::GetCounter("router.child_failures_total.replica" + std::to_string(k))
      .Increment();
}

std::vector<std::string> ProcessRouter::Broadcast(const std::string& line) {
  std::vector<std::string> responses(children_.size());
  for (std::size_t k = 0; k < children_.size(); ++k) {
    if (!children_[k].alive) continue;
    if (!WriteAllQuiet(children_[k].fd, line + "\n")) MarkChildDead(k);
  }
  WallTimer timer;
  for (std::size_t k = 0; k < children_.size(); ++k) {
    if (!children_[k].alive) continue;
    std::string response;
    bool ok;
    bool timed_out = false;
    if (options_.child_timeout_ms > 0.0) {
      const double left = options_.child_timeout_ms - timer.Millis();
      ok = children_[k].reader->NextLineWithin(response, left, timed_out);
    } else {
      ok = children_[k].reader->NextLine(response);
    }
    if (ok) {
      responses[k] = std::move(response);
    } else {
      MarkChildDead(k);
    }
  }
  return responses;
}

std::string ProcessRouter::MergedTraceExport() {
  if (obs::Tracing::IsEnabled()) {
    const std::vector<std::string> exports =
        Broadcast("{\"id\":\"__trace__\",\"trace\":{\"export\":true}}");
    for (std::size_t k = 0; k < exports.size(); ++k) {
      if (exports[k].empty()) continue;
      auto json = ParseJson(exports[k]);
      if (!json.ok()) continue;
      const JsonValue* trace = json->Find("trace");
      if (trace == nullptr) continue;
      const JsonValue* events = trace->Find("traceEvents");
      if (events == nullptr || !events->is_array()) continue;
      // Replica k's spans re-home to pid k+2 (the router itself is pid 1);
      // tid and timestamps carry over — each process has its own trace
      // epoch, so cross-process alignment is approximate by design.
      for (const JsonValue& event : events->AsArray()) {
        const JsonValue* name = event.Find("name");
        const JsonValue* tid = event.Find("tid");
        const JsonValue* ts = event.Find("ts");
        const JsonValue* dur = event.Find("dur");
        if (name == nullptr || !name->is_string() || ts == nullptr ||
            !ts->is_number() || dur == nullptr || !dur->is_number()) {
          continue;
        }
        std::uint64_t query_id = 0;
        if (const JsonValue* args = event.Find("args")) {
          if (const JsonValue* qid = args->Find("query_id")) {
            if (qid->is_number() && qid->AsNumber() >= 0) {
              query_id = static_cast<std::uint64_t>(qid->AsNumber());
            }
          }
        }
        obs::Tracing::ImportSpan(
            name->AsString(), static_cast<std::uint32_t>(k + 2),
            tid != nullptr && tid->is_number()
                ? static_cast<std::uint32_t>(tid->AsNumber())
                : 0,
            ts->AsNumber(), dur->AsNumber(), query_id);
      }
    }
  }
  return obs::Tracing::ExportChromeJson();
}

std::string ProcessRouter::HandleAdminLine(const std::string& line) {
  auto json = ParseJson(line);
  if (!json.ok()) return SerializeParseError(json.status());
  auto request = ParseAdminRequest(*json);
  if (!request.ok()) {
    return SerializeAdminError(AdminRequest{}, request.status());
  }
  JsonValue::Object response;
  response["id"] = request->id;
  response["ok"] = true;
  switch (request->verb) {
    case AdminRequest::Verb::kStats: {
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::Global().Snapshot();
      auto stats = ParseJson(snap.ToJson());
      IF_CHECK(stats.ok()) << "metrics snapshot must serialize as JSON";
      response["stats"] = std::move(*stats);
      response["prometheus"] = snap.ToPrometheus();
      break;
    }
    case AdminRequest::Verb::kHealth: {
      JsonValue::Object health;
      health["role"] = "router";
      health["num_replicas"] = static_cast<double>(children_.size());
      health["num_live_replicas"] = static_cast<double>(num_live_children());
      JsonValue::Array replicas;
      // Dead replicas stay listed (alive:false) so exclusion after a
      // child death is visible to the scraper, not silently elided.
      for (std::size_t k = 0; k < children_.size(); ++k) {
        JsonValue::Object replica;
        replica["replica"] = static_cast<double>(k);
        replica["alive"] = children_[k].alive;
        replicas.push_back(std::move(replica));
      }
      health["replicas"] = std::move(replicas);
      // Per-replica health rides along so one verb answers both layers.
      const std::vector<std::string> child_health =
          Broadcast("{\"id\":\"__health__\",\"health\":true}");
      JsonValue::Array details;
      for (const std::string& entry : child_health) {
        if (entry.empty()) {
          details.push_back(JsonValue());
          continue;
        }
        auto parsed = ParseJson(entry);
        details.push_back(parsed.ok() ? std::move(*parsed) : JsonValue());
      }
      health["replica_health"] = std::move(details);
      response["health"] = std::move(health);
      break;
    }
    case AdminRequest::Verb::kTraceEnable:
      obs::Tracing::Enable(request->trace_capacity != 0
                               ? request->trace_capacity
                               : std::size_t{1} << 14);
      Broadcast(line);
      response["trace"] = "enabled";
      break;
    case AdminRequest::Verb::kTraceDisable:
      obs::Tracing::Disable();
      Broadcast(line);
      response["trace"] = "disabled";
      break;
    case AdminRequest::Verb::kTraceExport: {
      auto exported = ParseJson(MergedTraceExport());
      IF_CHECK(exported.ok()) << "trace export must serialize as JSON";
      response["trace"] = std::move(*exported);
      break;
    }
  }
  return JsonValue(std::move(response)).Dump();
}

std::vector<std::string> ProcessRouter::RouteBatch(
    const std::vector<std::string>& lines) {
  obs::GetCounter("router.proc_batches_total").Increment();
  WallTimer timer;
  std::vector<std::string> responses(lines.size());
  // Preprocess: admin verbs are answered by the router itself (the only
  // place replica liveness is known); query lines arriving without a
  // query_id get one minted and injected so replica spans join the same
  // trace tree. Unparseable lines are forwarded untouched — a child
  // serializes the parse error exactly as before.
  std::vector<std::string> routed(lines);
  std::vector<char> handled(lines.size(), 0);
  std::uint64_t batch_query_id = 0;
  for (std::size_t j = 0; j < lines.size(); ++j) {
    auto json = ParseJson(lines[j]);
    if (!json.ok() || !json->is_object()) continue;
    if (IsAdminRequest(*json)) {
      responses[j] = HandleAdminLine(lines[j]);
      handled[j] = 1;
      continue;
    }
    if (IsIngestRequest(*json)) continue;
    if (json->Find("query_id") == nullptr) {
      const std::uint64_t query_id = MintQueryId();
      if (batch_query_id == 0) batch_query_id = query_id;
      json->MutableObject()["query_id"] = static_cast<double>(query_id);
      routed[j] = json->Dump();
    }
  }
  obs::TraceSpan span("router/route_batch", batch_query_id);
  // Round-robin assignment over the live children, continuing where the
  // previous batch left off so single-line batches still spread.
  std::vector<std::vector<std::size_t>> assigned(children_.size());
  for (std::size_t j = 0; j < lines.size(); ++j) {
    if (handled[j] != 0) continue;
    std::size_t probe = 0;
    for (; probe < children_.size(); ++probe) {
      const std::size_t k = (next_child_ + probe) % children_.size();
      if (children_[k].alive) {
        assigned[k].push_back(j);
        next_child_ = (k + 1) % children_.size();
        break;
      }
    }
    if (probe == children_.size()) {
      responses[j] = ErrorResponseFor(
          routed[j], Status::IOError("no shard children alive"));
    }
  }
  // Write every child its lines first, then collect: children crunch their
  // slices concurrently while the router drains them one by one.
  for (std::size_t k = 0; k < children_.size(); ++k) {
    if (assigned[k].empty() || !children_[k].alive) continue;
    std::string blob;
    for (const std::size_t j : assigned[k]) {
      blob += routed[j];
      blob += '\n';
    }
    if (!WriteAllQuiet(children_[k].fd, blob)) {
      MarkChildDead(k);
      for (const std::size_t j : assigned[k]) {
        responses[j] = ErrorResponseFor(
            routed[j], Status::IOError("shard child ", k,
                                       " rejected the batch (broken pipe): ",
                                       std::strerror(errno)));
      }
    }
  }
  for (std::size_t k = 0; k < children_.size(); ++k) {
    if (assigned[k].empty() || !children_[k].alive) continue;
    for (std::size_t a = 0; a < assigned[k].size(); ++a) {
      const std::size_t j = assigned[k][a];
      std::string line;
      bool ok;
      bool timed_out = false;
      if (options_.child_timeout_ms > 0.0) {
        const double left = options_.child_timeout_ms - timer.Millis();
        ok = children_[k].reader->NextLineWithin(line, left, timed_out);
      } else {
        ok = children_[k].reader->NextLine(line);
      }
      if (ok) {
        responses[j] = std::move(line);
        continue;
      }
      // EOF mid-batch (the child died) or deadline expiry (the response
      // stream can no longer be trusted to stay aligned): fail this and
      // every later line assigned to the child, descriptively.
      MarkChildDead(k);
      const Status status =
          timed_out
              ? Status::DeadlineExceeded("shard child ", k, " exceeded the ",
                                         options_.child_timeout_ms,
                                         " ms router deadline mid-batch")
              : Status::IOError("shard child ", k, " died mid-batch");
      for (; a < assigned[k].size(); ++a) {
        responses[assigned[k][a]] = ErrorResponseFor(routed[assigned[k][a]],
                                                     status);
      }
      break;
    }
  }
  return responses;
}

Status ProcessRouter::Serve(int in_fd, int out_fd) {
  LineReader reader(in_fd, options_.interrupt);
  std::string line;
  std::vector<std::string> lines;
  while (reader.NextLine(line)) {
    lines.clear();
    lines.push_back(std::move(line));
    while (lines.size() < options_.max_batch && reader.TryNextLine(line)) {
      lines.push_back(std::move(line));
    }
    const std::vector<std::string> responses = RouteBatch(lines);
    std::string out;
    for (const std::string& response : responses) {
      out += response;
      out += '\n';
    }
    if (!WriteAllQuiet(out_fd, out)) {
      return Status::IOError("short write to fd ", out_fd, ": ",
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace infoflow::serve
