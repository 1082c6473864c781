/// \file server.h
/// \brief The long-running `infoflow serve` daemon: NDJSON query batches
/// over stdin/stdout and an optional Unix-domain socket, against one shared
/// SampleBank.
///
/// Batching: the serve loop blocks for one request line, then greedily
/// drains whatever further complete lines the client has already written
/// (up to `max_batch`) into a single QueryEngine::AnswerBatch call — a
/// client that pipes a file of queries gets them answered in large shared
/// batches (one row scan per distinct source frontier), while an
/// interactive client still gets per-line latency.
///
/// Concurrency: each connection (and the stdio loop) gets its own
/// QueryEngine over the shared bank, and a socket connection its own
/// thread, joined at the next accept once it has finished (Stop() joins
/// the open ones); a background thread refreshes the bank on a fixed
/// interval, swapping generations without ever blocking readers (see
/// sample_bank.h).

#pragma once

#include <csignal>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "seedmax/rr_index.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "stream/ingestor.h"
#include "util/status.h"

namespace infoflow::serve {

struct AdminRequest;  // protocol.h
struct TopkRequest;   // protocol.h

/// \brief Daemon tuning.
struct ServerOptions {
  /// Max request lines folded into one engine batch.
  std::size_t max_batch = 64;
  /// Unix-domain socket to listen on; empty → stdio only. An existing file
  /// at the path is replaced.
  std::string socket_path;
  /// Background bank-refresh period; 0 → the bank is never refreshed.
  double refresh_interval_ms = 0.0;
  /// When an ingestor is attached: a published ModelEpoch whose max-|Δp|
  /// drift exceeds this triggers a background SampleBank::Rebuild onto the
  /// new model. 0 (the default) rebuilds on any nonzero drift.
  double drift_threshold = 0.0;
  /// Per-connection query-engine tuning.
  QueryEngineOptions engine;
  /// Period of the background metrics-snapshot writer (the CLI's
  /// `--stats-every`); 0 → no periodic writer. Requires stats_path.
  double stats_interval_ms = 0.0;
  /// File the periodic writer (and Stop()) writes the metrics snapshot
  /// JSON to, atomically via rename.
  std::string stats_path;
  /// Queries whose batch latency reaches this many milliseconds (or that
  /// die on a deadline) are appended to the slow-query log; 0 → off.
  /// Requires slow_query_path. Schema documented in README.
  double slow_query_ms = 0.0;
  /// NDJSON file the slow-query log appends to (opened lazily).
  std::string slow_query_path;
  /// When set, serve loops treat `*interrupt != 0` as EOF on their input:
  /// the CLI points this at its SIGTERM/SIGINT flag so a signalled daemon
  /// unwinds cleanly and still writes its metrics artifacts.
  const volatile std::sig_atomic_t* interrupt = nullptr;

  /// Validates the option values.
  Status Validate() const;
};

/// \brief Owns the bank, the listener, and the refresh thread.
class Server {
 public:
  static Result<Server> Create(SampleBank bank, ServerOptions options);

  // Defined in server.cc, where Background is complete.
  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;
  ~Server();

  /// \brief Serves NDJSON batches read from `in_fd` to `out_fd` until EOF
  /// (one response line per request line, in order; unparseable lines get
  /// an error response with a null id). Blocking; returns once the peer
  /// closes or on an unrecoverable I/O error.
  Status ServeFd(int in_fd, int out_fd);

  /// ServeFd over stdin/stdout — the `infoflow serve` foreground loop.
  Status ServeStdio() { return ServeFd(0, 1); }

  /// \brief Connects a streaming ingestor: the serve loops accept
  /// `{"ingest": ...}` lines (absorbed synchronously), and every published
  /// ModelEpoch whose drift exceeds `drift_threshold` queues a background
  /// bank rebuild onto the new model — in-flight queries keep answering
  /// from the generation they acquired, the next batch sees the new rows.
  /// Must be called before Start().
  void AttachIngestor(std::shared_ptr<stream::StreamIngestor> ingestor);

  /// The attached ingestor (null when serving a static model).
  const std::shared_ptr<stream::StreamIngestor>& ingestor() const {
    return ingestor_;
  }

  /// \brief Starts the background threads: the Unix-socket accept loop
  /// (when socket_path is set), the bank refresher (when
  /// refresh_interval_ms > 0), and the drift-rebuild worker (when an
  /// ingestor is attached). Idempotent per server.
  Status Start();

  /// Stops the background threads and joins open connections. An attached
  /// ingestor's feed is stopped and its epoch callback detached; the
  /// rebuild worker is joined only after every epoch source is quiet, so a
  /// pending drift-triggered rebuild — including one raised by the last
  /// line of a draining connection or feed — is applied before returning
  /// and a post-Stop metrics snapshot deterministically reflects every
  /// absorbed epoch. Called by the destructor.
  void Stop();

  /// The shared bank (e.g. for warm-up checks in tests).
  SampleBank& bank() { return bank_; }

  const ServerOptions& options() const { return options_; }

  /// The reverse-reachable sketch index behind the {"topk":...} verb.
  /// Lazily inverts the bank's current generation on the first top-k
  /// request; refresh / drift-rebuild publishes re-prime it (only once a
  /// sketch set was ever built) so streamed evidence invalidates sketches.
  const std::shared_ptr<seedmax::RrIndex>& rr_index() const {
    return rr_index_;
  }

 private:
  Server(SampleBank bank, ServerOptions options);

  void AcceptLoop();
  void RefreshLoop();
  void RebuildLoop();
  void StatsLoop();

  /// Writes the current metrics snapshot to options_.stats_path (tmp +
  /// rename, so scrapers never read a torn file).
  void WriteStatsSnapshot();

  /// Answers one parsed admin verb ({"stats"} / {"health"} / {"trace"}).
  std::string HandleAdmin(const AdminRequest& request);

  /// Answers one parsed {"topk":...} seed-selection request against the
  /// current bank generation (cached sketches for the unconstrained case,
  /// an ad-hoc conditioned/community build otherwise).
  std::string HandleTopk(const TopkRequest& request);

  /// Appends one NDJSON record per slow (or deadline-dead) result to the
  /// slow-query log; no-op unless options_.slow_query_ms > 0.
  void LogSlowQueries(const std::vector<QueryRequest>& requests,
                      const std::vector<QueryResult>& results);

  /// Epoch-callback target: queues `epoch` for the rebuild worker.
  void RequestRebuild(std::shared_ptr<const stream::ModelEpoch> epoch);

  SampleBank bank_;
  ServerOptions options_;
  /// Sketch cache for top-k seed selection; shared with connections.
  std::shared_ptr<seedmax::RrIndex> rr_index_;
  std::shared_ptr<stream::StreamIngestor> ingestor_;

  /// Thread state lives behind a pointer so the server stays movable
  /// (Result<Server>); defined in server.cc.
  struct Background;
  std::unique_ptr<Background> background_;

  obs::Counter* metric_batches_;
  obs::Counter* metric_lines_;
  obs::Counter* metric_connections_;
  obs::Counter* metric_ingest_lines_;
  obs::Counter* metric_rebuilds_triggered_;
  obs::Counter* metric_admin_requests_;
  obs::Counter* metric_topk_requests_;
  obs::Counter* metric_slow_queries_;
  obs::Gauge* metric_qps_;
  obs::Histogram* metric_batch_lines_;
};

}  // namespace infoflow::serve
