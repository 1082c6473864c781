/// \file router.h
/// \brief The `--shard-procs` router: NDJSON fan-out over full-replica
/// child processes.
///
/// Each child process runs a full replica (same seed → same bank rows →
/// identical answers) behind the unchanged NDJSON protocol; the router
/// round-robins request lines across children, reassembles responses in
/// input order, and turns a dead or stalled child into descriptive
/// per-query error lines instead of a hang. What it buys is fault
/// isolation and a cross-process trace tree, not answers a single daemon
/// could not give: replicas answer byte-identically to one another.

#pragma once

#include <csignal>
#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace infoflow::serve {

/// \brief Round-robin NDJSON fan-out over shard child processes.
///
/// The router owns nothing about queries: it forwards raw request lines to
/// children (full replicas listening on the fds handed in), reads one
/// response line per request line, and reassembles them in input order.
/// Children that die (EOF/write error) or stall past the per-batch
/// deadline get their in-flight lines answered with descriptive error
/// responses and are excluded from later batches.
class ProcessRouter {
 public:
  struct Options {
    /// Max request lines folded into one fan-out round.
    std::size_t max_batch = 64;
    /// Per-batch child response deadline; 0 → wait forever.
    double child_timeout_ms = 0.0;
    /// When set, Serve treats `*interrupt != 0` as EOF on its input (the
    /// CLI's SIGTERM/SIGINT flag) so a signalled router still writes its
    /// shutdown-time observability artifacts.
    const volatile std::sig_atomic_t* interrupt = nullptr;
  };

  /// `child_fds` are connected stream sockets (or pipe pairs) to shard
  /// children speaking the serve NDJSON protocol. The router closes them
  /// on destruction.
  ProcessRouter(std::vector<int> child_fds, Options options);
  ~ProcessRouter();
  ProcessRouter(const ProcessRouter&) = delete;
  ProcessRouter& operator=(const ProcessRouter&) = delete;

  /// \brief Bridges `in_fd` to `out_fd` through the children until EOF on
  /// `in_fd`: greedy-batches request lines (like Server::ServeFd), fans
  /// each batch out round-robin, merges responses in input order. Fails
  /// only when no child is left alive or the output fd breaks.
  Status Serve(int in_fd, int out_fd);

  /// \brief One fan-out round: routes `lines` across the live children and
  /// returns exactly one response line per input line, in order. Dead or
  /// stalled children yield serialized error responses echoing each
  /// affected line's request id. Exposed for the fault-path tests.
  ///
  /// Observability hooks: query lines arriving without a `query_id` get
  /// one minted and injected before forwarding, so replica-side spans join
  /// the router's trace tree; admin verbs ({"stats"}, {"health"},
  /// {"trace":...}) are answered by the router itself — `health` reports
  /// per-replica liveness (dead children stay listed, alive:false), and
  /// trace enable/disable/export fan out to every live replica.
  std::vector<std::string> RouteBatch(const std::vector<std::string>& lines);

  /// \brief Sends one line to every live child and reads one response line
  /// each, positionally (dead or failing children yield ""). Used for
  /// trace fan-out; exposed for tests.
  std::vector<std::string> Broadcast(const std::string& line);

  /// \brief Chrome-trace JSON of the router process's spans merged with
  /// every live replica's exported spans (replica k's events re-homed to
  /// pid k+2). Answers {"trace":{"export":true}} and the CLI's
  /// shutdown-time --trace-json artifact.
  std::string MergedTraceExport();

  /// Children still considered alive.
  std::size_t num_live_children() const;

 private:
  struct Child;

  /// Marks child k dead and bumps both the aggregate and the per-replica
  /// failure counters (`router.child_failures_total` and
  /// `router.child_failures_total.replica<k>`).
  void MarkChildDead(std::size_t k);

  /// Answers one admin verb line locally (see RouteBatch).
  std::string HandleAdminLine(const std::string& line);

  std::vector<Child> children_;
  Options options_;
  std::size_t next_child_ = 0;
};

}  // namespace infoflow::serve
