#include "serve/router.h"

#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow::serve {
namespace {

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
/// when the line carries one.
std::string ErrorResponseFor(const std::string& line, const Status& status) {
  auto json = ParseJson(line);
  if (!json.ok()) return SerializeParseError(status);
  auto request = ParseRequest(*json);
  if (!request.ok()) return SerializeParseError(status, &*json);
  QueryResult result;
  result.status = status;
  return SerializeResult(*request, result);
}

}  // namespace

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
  if (!request.ok()) return SerializeParseError(request.status(), &*json);
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
