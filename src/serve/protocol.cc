#include "serve/protocol.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace infoflow::serve {
namespace {

/// Casts an integral JSON number to T, first refusing values past T's
/// maximum: converting a double outside T's range is undefined (node
/// 2^32 + 5 would otherwise answer as node 5, and 1e300 as node 0).
template <typename T>
Result<T> CastInRange(double number, const char* field) {
  // 2^digits, the first integer past T's maximum, is exact as a double.
  if (number >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    return Status::InvalidArgument("'", field, "' must be at most ",
                                   std::numeric_limits<T>::max(), ", got ",
                                   JsonValue(number).Dump());
  }
  return static_cast<T>(number);
}

/// Reads a node id from a JSON number (must be a non-negative integer).
Result<NodeId> ParseNodeId(const JsonValue& value, const char* field) {
  if (!value.is_number()) {
    return Status::InvalidArgument("'", field, "' must be a number");
  }
  const double number = value.AsNumber();
  if (!(number >= 0) || number != std::floor(number)) {
    return Status::InvalidArgument("'", field,
                                   "' must be a non-negative integer, got ",
                                   number);
  }
  return CastInRange<NodeId>(number, field);
}

/// Reads the optional `query_id` field into `query_id`/`provided`.
Status ParseQueryId(const JsonValue& json, std::uint64_t& query_id,
                    bool& provided) {
  const JsonValue* value = json.Find("query_id");
  if (value == nullptr) return Status::OK();
  if (!value->is_number() || value->AsNumber() < 0 ||
      value->AsNumber() != std::floor(value->AsNumber())) {
    return Status::InvalidArgument("'query_id' must be a non-negative integer");
  }
  auto parsed = CastInRange<std::uint64_t>(value->AsNumber(), "query_id");
  if (!parsed.ok()) return parsed.status();
  query_id = *parsed;
  provided = true;
  return Status::OK();
}

/// Reads `field` (singular, a number) or `fields` (plural, an array) into a
/// node list; absent → empty.
Result<std::vector<NodeId>> ParseNodeList(const JsonValue& json,
                                          const char* singular,
                                          const char* plural) {
  std::vector<NodeId> nodes;
  if (const JsonValue* one = json.Find(singular)) {
    auto id = ParseNodeId(*one, singular);
    if (!id.ok()) return id.status();
    nodes.push_back(*id);
  }
  if (const JsonValue* many = json.Find(plural)) {
    if (!many->is_array()) {
      return Status::InvalidArgument("'", plural, "' must be an array");
    }
    for (const JsonValue& entry : many->AsArray()) {
      auto id = ParseNodeId(entry, plural);
      if (!id.ok()) return id.status();
      nodes.push_back(*id);
    }
  }
  return nodes;
}

/// Reads a condition-grammar string field ("0>3 4!>7"); absent → empty.
Result<FlowConditions> ParseConditionsField(const JsonValue& json,
                                            const char* field) {
  const JsonValue* value = json.Find(field);
  if (value == nullptr) return FlowConditions{};
  if (!value->is_string()) {
    return Status::InvalidArgument("'", field,
                                   "' must be a condition string like "
                                   "\"0>3 4!>7\"");
  }
  return ParseFlowConditions(value->AsString());
}

}  // namespace

bool IsIngestRequest(const JsonValue& json) {
  return json.is_object() && json.Find("ingest") != nullptr;
}

bool IsAdminRequest(const JsonValue& json) {
  return json.is_object() &&
         (json.Find("stats") != nullptr || json.Find("health") != nullptr ||
          json.Find("trace") != nullptr);
}

Result<AdminRequest> ParseAdminRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  AdminRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }
  const JsonValue* stats = json.Find("stats");
  const JsonValue* health = json.Find("health");
  const JsonValue* trace = json.Find("trace");
  const int verbs = (stats != nullptr) + (health != nullptr) +
                    (trace != nullptr);
  if (verbs != 1) {
    return Status::InvalidArgument(
        "admin request must carry exactly one of 'stats' | 'health' | "
        "'trace'");
  }
  if (stats != nullptr) {
    request.verb = AdminRequest::Verb::kStats;
    return request;
  }
  if (health != nullptr) {
    request.verb = AdminRequest::Verb::kHealth;
    return request;
  }
  if (!trace->is_object()) {
    return Status::InvalidArgument(
        "'trace' must be an object like {\"enable\":true} or "
        "{\"export\":true}");
  }
  const JsonValue* enable = trace->Find("enable");
  const JsonValue* export_flag = trace->Find("export");
  if ((enable != nullptr) == (export_flag != nullptr)) {
    return Status::InvalidArgument(
        "'trace' takes exactly one of 'enable' (bool) or 'export' (true)");
  }
  if (export_flag != nullptr) {
    if (!export_flag->is_bool() || !export_flag->AsBool()) {
      return Status::InvalidArgument("'trace.export' must be true");
    }
    request.verb = AdminRequest::Verb::kTraceExport;
    return request;
  }
  if (!enable->is_bool()) {
    return Status::InvalidArgument("'trace.enable' must be a boolean");
  }
  request.verb = enable->AsBool() ? AdminRequest::Verb::kTraceEnable
                                  : AdminRequest::Verb::kTraceDisable;
  if (const JsonValue* capacity = trace->Find("events_per_thread")) {
    if (!capacity->is_number() || capacity->AsNumber() < 1 ||
        capacity->AsNumber() != std::floor(capacity->AsNumber())) {
      return Status::InvalidArgument(
          "'trace.events_per_thread' must be a positive integer");
    }
    auto parsed = CastInRange<std::size_t>(capacity->AsNumber(),
                                           "trace.events_per_thread");
    if (!parsed.ok()) return parsed.status();
    request.trace_capacity = *parsed;
  }
  return request;
}

bool IsTopkRequest(const JsonValue& json) {
  return json.is_object() && json.Find("topk") != nullptr;
}

Result<TopkRequest> ParseTopkRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  TopkRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }
  IF_RETURN_NOT_OK(
      ParseQueryId(json, request.query_id, request.query_id_provided));
  const JsonValue* k = json.Find("topk");
  if (k == nullptr || !k->is_number() || k->AsNumber() < 1 ||
      k->AsNumber() != std::floor(k->AsNumber())) {
    return Status::InvalidArgument(
        "'topk' must be a positive integer (the seed-set size)");
  }
  auto parsed_k = CastInRange<std::size_t>(k->AsNumber(), "topk");
  if (!parsed_k.ok()) return parsed_k.status();
  request.k = *parsed_k;
  auto candidates = ParseNodeList(json, "candidate", "candidates");
  if (!candidates.ok()) return candidates.status();
  request.candidates = std::move(*candidates);
  if (const JsonValue* community = json.Find("community")) {
    if (!community->is_array()) {
      return Status::InvalidArgument("'community' must be an array");
    }
    for (const JsonValue& entry : community->AsArray()) {
      auto id = ParseNodeId(entry, "community");
      if (!id.ok()) return id.status();
      request.community.push_back(*id);
    }
  }
  auto given = ParseConditionsField(json, "given");
  if (!given.ok()) return given.status();
  request.given = std::move(*given);
  return request;
}

std::string SerializeTopkResult(const TopkRequest& request,
                                const seedmax::SeedMaxResult& result) {
  JsonValue::Object response;
  response["id"] = request.id;
  // Like SerializeResult: only a client-provided query_id is echoed, so
  // responses stay byte-identical between runs whose mint counters differ.
  if (request.query_id_provided && request.query_id != 0) {
    response["query_id"] = static_cast<double>(request.query_id);
  }
  response["ok"] = true;
  response["kind"] = "topk";
  response["generation"] = static_cast<double>(result.generation);
  response["model_epoch"] = static_cast<double>(result.model_epoch);
  response["total_rows"] = static_cast<double>(result.total_rows);
  response["effective_rows"] = static_cast<double>(result.effective_rows);
  response["universe"] = static_cast<double>(result.universe);
  response["sketches"] = static_cast<double>(result.num_sketches);
  response["evaluations"] = static_cast<double>(result.evaluations);
  response["prune_hits"] = static_cast<double>(result.prune_hits);
  JsonValue::Array seeds;
  seeds.reserve(result.picks.size());
  for (const seedmax::SeedPick& pick : result.picks) {
    JsonValue::Object entry;
    entry["node"] = static_cast<double>(pick.node);
    entry["marginal_coverage"] =
        static_cast<double>(pick.marginal_coverage);
    entry["spread"] = pick.spread;
    entry["mcse"] = pick.mcse;
    seeds.push_back(std::move(entry));
  }
  response["seeds"] = std::move(seeds);
  response["spread"] = result.spread;
  response["mcse"] = result.mcse;
  return JsonValue(std::move(response)).Dump();
}

std::string SerializeTopkError(const TopkRequest& request,
                               const Status& status) {
  JsonValue::Object response;
  response["id"] = request.id;
  if (request.query_id_provided && request.query_id != 0) {
    response["query_id"] = static_cast<double>(request.query_id);
  }
  response["ok"] = false;
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  response["error"] = std::move(error);
  return JsonValue(std::move(response)).Dump();
}

std::uint64_t MintQueryId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Result<IngestRequest> ParseIngestRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  IngestRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }
  const JsonValue* record = json.Find("ingest");
  if (record == nullptr || !record->is_string()) {
    return Status::InvalidArgument(
        "'ingest' must be an evidence record string");
  }
  request.record = record->AsString();
  return request;
}

std::string SerializeIngestAck(const IngestRequest& request,
                               std::uint64_t absorbed_total,
                               std::uint64_t epoch) {
  JsonValue::Object response;
  response["id"] = request.id;
  response["ok"] = true;
  response["ingested"] = true;
  response["absorbed_total"] = static_cast<double>(absorbed_total);
  response["epoch"] = static_cast<double>(epoch);
  return JsonValue(std::move(response)).Dump();
}

std::string SerializeIngestError(const IngestRequest& request,
                                 const Status& status) {
  JsonValue::Object response;
  response["id"] = request.id;
  response["ok"] = false;
  response["ingested"] = false;
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  response["error"] = std::move(error);
  return JsonValue(std::move(response)).Dump();
}

Result<QueryRequest> ParseRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  QueryRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }

  // An upstream router (the --shard-procs parent) stamps the query id it
  // minted into the forwarded line so replica spans join the same tree.
  IF_RETURN_NOT_OK(
      ParseQueryId(json, request.query_id, request.query_id_provided));

  auto sources = ParseNodeList(json, "source", "sources");
  if (!sources.ok()) return sources.status();
  request.sources = std::move(*sources);
  auto sinks = ParseNodeList(json, "sink", "sinks");
  if (!sinks.ok()) return sinks.status();
  request.sinks = std::move(*sinks);

  auto flows = ParseConditionsField(json, "flows");
  if (!flows.ok()) return flows.status();
  request.flows = std::move(*flows);
  auto given = ParseConditionsField(json, "given");
  if (!given.ok()) return given.status();
  request.given = std::move(*given);

  if (const JsonValue* timeout = json.Find("timeout_ms")) {
    if (!timeout->is_number() || timeout->AsNumber() < 0) {
      return Status::InvalidArgument("'timeout_ms' must be a number >= 0");
    }
    request.timeout_ms = timeout->AsNumber();
  }

  // Backend: absent → the engine default (the daemon's --backend flag).
  if (const JsonValue* backend = json.Find("backend")) {
    if (!backend->is_string()) {
      return Status::InvalidArgument(
          "'backend' must be a string (auto | analytic | bank)");
    }
    auto parsed = ParseQueryBackend(backend->AsString());
    if (!parsed.ok()) return parsed.status();
    request.backend = *parsed;
  }

  // Kind: explicit when present, inferred from the fields otherwise.
  if (const JsonValue* kind = json.Find("kind")) {
    if (!kind->is_string()) {
      return Status::InvalidArgument("'kind' must be a string");
    }
    const std::string& name = kind->AsString();
    if (name == "flow") {
      request.kind = QueryKind::kFlow;
    } else if (name == "community") {
      request.kind = QueryKind::kCommunity;
    } else if (name == "joint") {
      request.kind = QueryKind::kJoint;
    } else {
      return Status::InvalidArgument(
          "unknown kind '", name, "' (expected flow | community | joint)");
    }
  } else if (!request.flows.empty()) {
    request.kind = QueryKind::kJoint;
  } else if (request.sinks.size() > 1) {
    request.kind = QueryKind::kCommunity;
  } else {
    request.kind = QueryKind::kFlow;
  }

  if (request.kind == QueryKind::kJoint &&
      (!request.sources.empty() || !request.sinks.empty())) {
    return Status::InvalidArgument(
        "joint queries take 'flows', not sources/sinks");
  }
  if (request.kind != QueryKind::kJoint && !request.flows.empty()) {
    return Status::InvalidArgument("'flows' is only valid with kind=joint");
  }
  return request;
}

Result<QueryRequest> ParseRequestLine(std::string_view line) {
  auto json = ParseJson(line);
  if (!json.ok()) return json.status();
  return ParseRequest(*json);
}

std::string SerializeResult(const QueryRequest& request,
                            const QueryResult& result) {
  JsonValue::Object response;
  response["id"] = request.id;
  // Only a query_id the client itself put on the wire is echoed: a
  // server-minted one is observability plumbing (trace spans, slow-query
  // log), and echoing it would break the byte-identical guarantee between
  // otherwise-identical runs whose mint counters differ.
  if (request.query_id_provided && request.query_id != 0) {
    response["query_id"] = static_cast<double>(request.query_id);
  }
  if (!result.status.ok()) {
    response["ok"] = false;
    JsonValue::Object error;
    error["code"] = StatusCodeName(result.status.code());
    error["message"] = result.status.message();
    response["error"] = std::move(error);
    return JsonValue(std::move(response)).Dump();
  }
  response["ok"] = true;
  response["kind"] = QueryKindName(request.kind);
  // Which estimator actually answered (never "auto"): "bank" for the
  // classic Eq. 5 replay, "analytic" for the sampling-free path.
  response["backend"] = QueryBackendName(result.backend);
  response["generation"] = static_cast<double>(result.generation);
  response["model_epoch"] = static_cast<double>(result.model_epoch);
  response["total_rows"] = static_cast<double>(result.total_rows);
  response["effective_rows"] = static_cast<double>(result.effective_rows);
  response["frontier_shared"] = result.frontier_shared;
  JsonValue::Array estimates;
  estimates.reserve(result.estimates.size());
  for (const SinkEstimate& est : result.estimates) {
    JsonValue::Object entry;
    entry["sink"] = static_cast<double>(est.sink);
    entry["value"] = est.value;
    entry["mcse"] = est.diagnostics.mcse;
    entry["ess"] = est.diagnostics.ess;
    entry["rhat"] = est.diagnostics.rhat;
    estimates.push_back(std::move(entry));
  }
  response["estimates"] = std::move(estimates);
  return JsonValue(std::move(response)).Dump();
}

std::string SerializeParseError(const Status& status, const JsonValue* line) {
  const JsonValue* id =
      line != nullptr && line->is_object() ? line->Find("id") : nullptr;
  JsonValue::Object response;
  response["id"] = id != nullptr && id->is_string() ? *id : JsonValue();
  response["ok"] = false;
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  response["error"] = std::move(error);
  return JsonValue(std::move(response)).Dump();
}

}  // namespace infoflow::serve
