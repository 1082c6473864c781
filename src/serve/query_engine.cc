#include "serve/query_engine.h"

#include <cstdint>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "serve/query_plan.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow::serve {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kFlow:
      return "flow";
    case QueryKind::kCommunity:
      return "community";
    case QueryKind::kJoint:
      return "joint";
  }
  return "unknown";
}

const char* QueryBackendName(QueryBackend backend) {
  switch (backend) {
    case QueryBackend::kAuto:
      return "auto";
    case QueryBackend::kAnalytic:
      return "analytic";
    case QueryBackend::kBank:
      return "bank";
  }
  return "unknown";
}

Result<QueryBackend> ParseQueryBackend(std::string_view name) {
  if (name == "auto") return QueryBackend::kAuto;
  if (name == "analytic") return QueryBackend::kAnalytic;
  if (name == "bank") return QueryBackend::kBank;
  return Status::InvalidArgument("unknown backend \"", std::string(name),
                                 "\"; expected auto, analytic, or bank");
}

bool BackendDispatcher::TryAnalytic(const BankGeneration& bank,
                                    const QueryRequest& request,
                                    QueryBackend backend,
                                    QueryResult& result) const {
  const bool explicit_analytic = backend == QueryBackend::kAnalytic;
  // Eq. 7–8 conditioning and joint indicators are row filters by
  // construction — only the bank can answer them. Under kAuto they route
  // silently; an explicit analytic ask fails descriptively.
  if (request.kind == QueryKind::kJoint || !request.given.empty()) {
    if (!explicit_analytic) return false;
    result.status = Status::FailedPrecondition(
        "the analytic backend answers unconditional flow/community queries "
        "only; ",
        request.kind == QueryKind::kJoint
            ? "joint queries are"
            : "conditioning (Eq. 7-8) is",
        " defined as a filter over retained rows -- use the bank backend");
    result.backend = QueryBackend::kAnalytic;
    return true;
  }
  const PointIcm* model = bank.model();
  if (model == nullptr) {
    if (!explicit_analytic) return false;
    result.status = Status::FailedPrecondition(
        "generation ", bank.id(),
        " carries no model snapshot; the analytic backend needs the edge "
        "probabilities the rows were drawn from");
    result.backend = QueryBackend::kAnalytic;
    return true;
  }
  WallTimer timer;
  obs::TraceSpan span("serve/analytic", request.query_id);
  analytic::AnalyticOptions opts = options_->analytic;
  // Auto routing only trusts the exact regimes (tree / enumeration): the
  // loopy correction is approximate, so a caller who didn't ask for the
  // analytic backend by name never receives an approximate answer.
  opts.require_exact = backend == QueryBackend::kAuto;
  auto answer = analytic::ReachProbabilities(
      *graph_, model->probs(), request.sources, request.sinks, opts);
  if (!answer.ok()) {
    if (!explicit_analytic) return false;
    result.status = answer.status();
    result.latency_ms = timer.Millis();
    result.backend = QueryBackend::kAnalytic;
    return true;
  }
  result.status = Status::OK();
  result.estimates.reserve(request.sinks.size());
  for (std::size_t i = 0; i < request.sinks.size(); ++i) {
    SinkEstimate estimate;
    estimate.sink = request.sinks[i];
    estimate.value = answer->probability[i];
    // Closed-form answer: no sampling noise. MCSE 0 / R-hat 1 make the
    // diagnostics read as a perfectly converged estimator downstream.
    estimate.diagnostics.mean = estimate.value;
    result.estimates.push_back(std::move(estimate));
  }
  result.effective_rows = 0;
  result.total_rows = bank.num_rows();
  result.generation = bank.id();
  result.model_epoch = bank.model_epoch();
  result.frontier_shared = false;
  result.latency_ms = timer.Millis();
  result.backend = QueryBackend::kAnalytic;
  result.analytic_method = answer->method;
  return true;
}

std::vector<std::size_t> BackendDispatcher::Partition(
    const BankGeneration& bank, const std::vector<QueryRequest>& requests,
    std::vector<QueryResult>& results) const {
  IF_CHECK(results.size() == requests.size())
      << "results must be pre-sized to the batch";
  std::vector<std::size_t> bank_indices;
  bank_indices.reserve(requests.size());
  // Analytic answers carry their own latency (no batch to attribute), and
  // feed the per-kind instruments the bank plan feeds for its batches.
  // Refusals of an explicit analytic ask answer nothing: no sample.
  KindLatencyRecorder latencies;
  for (std::size_t j = 0; j < requests.size(); ++j) {
    const QueryRequest& request = requests[j];
    const QueryBackend backend =
        request.backend.value_or(options_->default_backend);
    if (backend == QueryBackend::kBank ||
        // Invalid requests take the bank path so both backends fail them
        // with the one canonical validation message.
        !ValidateQueryRequest(*graph_, request).ok() ||
        !TryAnalytic(bank, request, backend, results[j])) {
      bank_indices.push_back(j);
    } else if (results[j].status.ok()) {
      latencies.Record(request.kind, results[j].latency_ms);
    }
  }
  latencies.Publish();
  return bank_indices;
}

void BackendDispatcher::Merge(const std::vector<std::size_t>& bank_indices,
                              std::vector<QueryResult>&& bank_results,
                              std::vector<QueryResult>& results) {
  IF_CHECK(bank_results.size() == bank_indices.size())
      << "bank results misaligned with the routed indices";
  for (std::size_t i = 0; i < bank_indices.size(); ++i) {
    results[bank_indices[i]] = std::move(bank_results[i]);
  }
  if constexpr (obs::MetricsEnabled()) {
    // Indexed by static_cast<std::size_t>(QueryBackend).
    static obs::Counter* const kBackendTotals[3] = {
        &obs::GetCounter("serve.query.backend_total.auto"),
        &obs::GetCounter("serve.query.backend_total.analytic"),
        &obs::GetCounter("serve.query.backend_total.bank")};
    for (const QueryResult& result : results) {
      kBackendTotals[static_cast<std::size_t>(result.backend)]->Increment();
    }
  }
}

Status QueryEngineOptions::Validate() const {
  if (rows_per_task == 0) {
    return Status::InvalidArgument("rows_per_task must be positive");
  }
  return Status::OK();
}

Result<QueryEngine> QueryEngine::Create(
    std::shared_ptr<const DirectedGraph> graph, QueryEngineOptions options) {
  IF_CHECK(graph != nullptr) << "null graph";
  IF_RETURN_NOT_OK(options.Validate());
  return QueryEngine(std::move(graph), options);
}

QueryEngine::QueryEngine(std::shared_ptr<const DirectedGraph> graph,
                         QueryEngineOptions options)
    : graph_(std::move(graph)),
      options_(options),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {
  workspaces_.reserve(pool_->size());
  batch_workspaces_.reserve(pool_->size());
  for (std::size_t t = 0; t < pool_->size(); ++t) {
    workspaces_.emplace_back(*graph_);
    batch_workspaces_.emplace_back(*graph_);
  }
  // Strip workspaces stay null until a batch resolves a multi-word width.
  strip_workspaces_.resize(pool_->size());
}

Status QueryEngine::ValidateRequest(const QueryRequest& request) const {
  return ValidateQueryRequest(*graph_, request);
}

std::vector<QueryResult> QueryEngine::AnswerBatch(
    const BankGeneration& bank, const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results(requests.size());
  BackendDispatcher dispatcher(*graph_, options_);
  const std::vector<std::size_t> bank_indices =
      dispatcher.Partition(bank, requests, results);
  if (bank_indices.empty()) {
    // Nothing to replay: no strip plane, no plan, no empty batch counted.
    BackendDispatcher::Merge(bank_indices, {}, results);
    return results;
  }
  // Resolve the replay width against this generation's row count; the
  // W-word strip plane is interleaved lazily on first acquisition and
  // cached on the generation, so later batches pay nothing.
  std::shared_ptr<const StripPlane> strip_plane;
  if (options_.use_batch_reachability) {
    const unsigned strip_words =
        ResolveStripWords(options_.lanes, bank.num_rows(),
                          graph_->num_nodes(), graph_->num_edges());
    if (strip_words > 1) {
      strip_plane = bank.AcquireStripPlane(strip_words);
      for (auto& ws : strip_workspaces_) {
        if (ws == nullptr || ws->words() != strip_words) {
          ws = StripWorkspace::Create(strip_words, *graph_);
        }
      }
    }
    obs::GetGauge("reach.strip_width").Set(64.0 * strip_words);
  }
  BlockOps ops(*graph_, bank, options_.use_batch_reachability, workspaces_,
               batch_workspaces_, strip_plane.get(), strip_workspaces_);
  QueryPlanOptions plan;
  plan.min_conditional_rows = options_.min_conditional_rows;
  plan.rows_per_task = options_.rows_per_task;
  if (bank_indices.size() == requests.size()) {
    // Everything routed to the bank (the default): no subset copy.
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

}  // namespace infoflow::serve
