/// \file infoflow_cli.cc
/// \brief `infoflow` — command-line front end to the library.
///
/// Subcommands:
///   simulate            generate a synthetic world: ground-truth model,
///                       attributed evidence, unattributed traces
///   train-attributed    raw attributed evidence -> betaICM model file
///   train-unattributed  activation traces -> point model file
///                       (joint-bayes | goyal | saito-em | filtered)
///   query               flow probability from a model, with optional
///                       conditions ("a>b" requires flow, "a!>b" forbids)
///   serve               long-running query daemon: draws a pseudo-state
///                       sample bank, then answers newline-delimited JSON
///                       query batches on stdin/stdout (and optionally a
///                       Unix socket) with amortized per-query cost
///   maximize            top-k seed selection (§I's marketing question):
///                       bank-backed reverse-reachable sketch coverage by
///                       default, --monte-carlo for fresh-simulation CELF
///   impact              spread-size distribution for a source
///   info                describe a model file
///   parse-tweets        raw tweet CSV -> attributed evidence (the §IV-B
///                       preprocessing: chains parsed, originals recovered)
///
/// Examples:
///   infoflow simulate --users 200 --messages 2000 --out-dir /tmp/world
///   infoflow train-attributed --graph /tmp/world/truth.picm
///       --evidence /tmp/world/evidence.att --out /tmp/world/model.bicm
///   infoflow query --model /tmp/world/model.bicm --source 0 --sink 5
///       --given "0>3 0!>7" --samples 20000   (flags continue one line)
///
/// All randomness is seeded (--seed, default 1) for reproducible runs.
///
/// Every command accepts --metrics-json/--metrics-csv/--trace-json to dump
/// the observability registry and a chrome://tracing span timeline after a
/// successful run; `query --progress` streams live throughput and R-hat to
/// stderr.

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "core/impact.h"
#include "core/influence_max.h"
#include "core/mh_sampler.h"
#include "core/multi_chain.h"
#include "core/serialization.h"
#include "seedmax/rr_index.h"
#include "seedmax/seed_selector.h"
#include "serve/router.h"
#include "serve/sample_bank.h"
#include "serve/server.h"
#include "stream/ingestor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "graph/generators.h"
#include "learn/attributed.h"
#include "learn/evidence_io.h"
#include "learn/model_trainer.h"
#include "twitter/cascade_gen.h"
#include "twitter/retweet_parser.h"
#include "twitter/tag_gen.h"
#include "twitter/tweet_io.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace infoflow {
namespace {

/// Minimal flag parser: accepts "--key value", "--key=value", and bare
/// "--flag" (stored as "1" — a boolean switch) when the next token is
/// another flag or the end of the line.
/// Node ids (and node counts) stop below kInvalidNode.
static_assert(kInvalidNode == 4294967295u);

class Flags {
 public:
  Flags(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        error_ = Status::InvalidArgument("unexpected argument '", arg, "'");
        return;
      }
      std::string key = arg.substr(2);
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_.insert_or_assign(key.substr(0, eq), key.substr(eq + 1));
      } else if (i + 1 >= argc || StartsWith(argv[i + 1], "--")) {
        values_.insert_or_assign(std::move(key), std::string("1"));
      } else {
        values_.insert_or_assign(std::move(key), std::string(argv[++i]));
      }
    }
  }

  const Status& error() const { return error_; }

  std::string Get(const std::string& key, const std::string& fallback) {
    seen_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// True when the switch was given (as bare "--flag" or any value other
  /// than "0"/"false").
  bool GetBool(const std::string& key) {
    const std::string raw = Get(key, "0");
    return raw != "0" && raw != "false";
  }

  /// A non-negative integer flag. A value that is empty, not a number,
  /// negative, followed by other characters, or past 2^64 − 1 is recorded
  /// in value_error() and reads as `fallback`.
  std::uint64_t GetInt(const std::string& key, std::uint64_t fallback) {
    return Parse(key, fallback, "a non-negative integer");
  }

  /// A node-id (or node-count) flag: as GetInt, and a value that does
  /// not fit below kInvalidNode is recorded in value_error() too, never
  /// wrapped.
  NodeId GetNode(const std::string& key, NodeId fallback) {
    const std::uint64_t value = GetInt(key, fallback);
    if (value < kInvalidNode) return static_cast<NodeId>(value);
    NoteBadValue(key, "an integer below 4294967295");
    return fallback;
  }

  /// A finite number flag; malformed values as for GetInt.
  double GetDouble(const std::string& key, double fallback) {
    const double value = Parse(key, fallback, "a finite number");
    if (std::isfinite(value)) return value;
    NoteBadValue(key, "a finite number");
    return fallback;
  }

  /// The first malformed numeric value read so far, naming its flag.
  const Status& value_error() const { return value_error_; }

  /// Overrides a flag programmatically (the --shard-procs fork path
  /// rewrites the child's configuration before re-dispatching serve).
  void Set(const std::string& key, std::string value) {
    values_.insert_or_assign(key, std::move(value));
  }

  Result<std::string> Require(const std::string& key) {
    seen_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag --", key);
    }
    return it->second;
  }

  /// A malformed numeric value (value_error()), else the first flag
  /// present but never consumed (typo detection).
  Status CheckUnused() const {
    if (!value_error_.ok()) return value_error_;
    for (const auto& [key, value] : values_) {
      if (!seen_.contains(key)) {
        return Status::InvalidArgument("unknown flag --", key);
      }
    }
    return Status::OK();
  }

 private:
  template <typename T>
  T Parse(const std::string& key, T fallback, const char* expected) {
    seen_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& raw = it->second;
    T value{};
    const auto [end, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), value);
    if (raw.empty() || ec != std::errc() || end != raw.data() + raw.size()) {
      NoteBadValue(key, expected);
      return fallback;
    }
    return value;
  }

  void NoteBadValue(const std::string& key, const char* expected) {
    if (!value_error_.ok()) return;
    value_error_ = Status::InvalidArgument(
        "--", key, " expects ", expected, ", got '", values_.at(key), "'");
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> seen_;
  Status error_;
  Status value_error_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// --------------------------------------------------------------- simulate
int CmdSimulate(Flags& flags) {
  const NodeId users = flags.GetNode("users", 200);
  const std::size_t messages = flags.GetInt("messages", 2000);
  const std::size_t objects = flags.GetInt("tag-objects", 400);
  const std::uint64_t seed = flags.GetInt("seed", 1);
  if (!flags.value_error().ok()) return Fail(flags.value_error());
  auto out_dir = flags.Require("out-dir");
  if (!out_dir.ok()) return Fail(out_dir.status());

  const std::string topology = flags.Get("topology", "pref");

  Rng rng(seed);
  DirectedGraph topo;
  if (topology == "pref") {
    topo = PreferentialAttachmentGraph(users, 3, 0.25, rng);
  } else if (topology == "tree") {
    topo = RandomTreeGraph(users, 4, rng);
  } else {
    return Fail(Status::InvalidArgument("unknown topology '", topology,
                                        "'; expected pref or tree"));
  }
  auto graph = std::make_shared<const DirectedGraph>(std::move(topo));
  std::vector<double> probs(graph->num_edges());
  for (double& p : probs) p = rng.Uniform(0.02, 0.3);
  const PointIcm truth(graph, probs);
  const UserRegistry registry = UserRegistry::Sequential(users);

  CascadeGenOptions gen;
  gen.num_messages = messages;
  gen.drop_original_prob = 0.15;
  auto cascades = GenerateCascades(truth, registry, gen, rng);
  if (!cascades.ok()) return Fail(cascades.status());
  const ParseResult parsed = ParseRetweetLog(cascades->log, registry);
  const AttributedEvidence evidence = parsed.ToEvidence(*graph);

  const TagNetwork network = AugmentWithOmnipotent(truth);
  TagGenOptions tag;
  tag.num_objects = objects;
  auto traces = GenerateTagTraces(network, TagKind::kUrl, tag, rng);
  if (!traces.ok()) return Fail(traces.status());

  const std::string base = *out_dir + "/";
  Status status = SavePointIcm(truth, base + "truth.picm");
  if (!status.ok()) return Fail(status);
  status = SavePointIcm(network.GroundTruth(tag.url_external_prob),
                        base + "truth_tags.picm");
  if (!status.ok()) return Fail(status);
  status = SaveAttributedEvidence(*graph, evidence, base + "evidence.att");
  if (!status.ok()) return Fail(status);
  status = SaveUnattributedEvidence(*traces, base + "traces.utr");
  if (!status.ok()) return Fail(status);
  status = SaveTweetLog(cascades->log, registry, base + "tweets.csv");
  if (!status.ok()) return Fail(status);
  std::printf(
      "wrote %struth.picm (n=%u m=%u), evidence.att (%zu objects), "
      "truth_tags.picm, traces.utr (%zu traces), tweets.csv (%zu raw)\n",
      base.c_str(), graph->num_nodes(), graph->num_edges(),
      evidence.objects.size(), traces->traces.size(),
      cascades->log.size());
  return 0;
}

// ----------------------------------------------------------- parse-tweets
int CmdParseTweets(Flags& flags) {
  auto tweets_path = flags.Require("tweets");
  auto graph_path = flags.Require("graph");
  auto out_path = flags.Require("out");
  if (!tweets_path.ok()) return Fail(tweets_path.status());
  if (!graph_path.ok()) return Fail(graph_path.status());
  if (!out_path.ok()) return Fail(out_path.status());

  auto reference = LoadPointIcm(*graph_path);
  if (!reference.ok()) return Fail(reference.status());
  const UserRegistry registry =
      UserRegistry::Sequential(reference->graph().num_nodes());
  auto log = LoadTweetLog(*tweets_path, registry);
  if (!log.ok()) return Fail(log.status());
  const ParseResult parsed = ParseRetweetLog(*log, registry);
  const AttributedEvidence evidence = parsed.ToEvidence(reference->graph());
  const Status status =
      SaveAttributedEvidence(reference->graph(), evidence, *out_path);
  if (!status.ok()) return Fail(status);
  std::printf(
      "parsed %zu tweets -> %zu messages (%llu originals recovered, %llu "
      "unresolved mentions) -> %zu evidence objects -> %s\n",
      log->size(), parsed.messages.size(),
      static_cast<unsigned long long>(parsed.recovered_originals),
      static_cast<unsigned long long>(parsed.unresolved_mentions),
      evidence.objects.size(), out_path->c_str());
  return 0;
}

// ------------------------------------------------------- train-attributed
int CmdTrainAttributed(Flags& flags) {
  auto graph_path = flags.Require("graph");
  auto evidence_path = flags.Require("evidence");
  auto out_path = flags.Require("out");
  if (!graph_path.ok()) return Fail(graph_path.status());
  if (!evidence_path.ok()) return Fail(evidence_path.status());
  if (!out_path.ok()) return Fail(out_path.status());

  auto reference = LoadPointIcm(*graph_path);
  if (!reference.ok()) return Fail(reference.status());
  auto evidence =
      LoadAttributedEvidence(*evidence_path, reference->graph());
  if (!evidence.ok()) return Fail(evidence.status());
  auto model = TrainBetaIcmFromAttributed(reference->graph_ptr(), *evidence);
  if (!model.ok()) return Fail(model.status());
  const Status status = SaveBetaIcm(*model, *out_path);
  if (!status.ok()) return Fail(status);
  std::printf("trained %s from %zu objects -> %s\n",
              model->ToString().c_str(), evidence->objects.size(),
              out_path->c_str());
  return 0;
}

// ----------------------------------------------------- train-unattributed
int CmdTrainUnattributed(Flags& flags) {
  auto graph_path = flags.Require("graph");
  auto traces_path = flags.Require("traces");
  auto out_path = flags.Require("out");
  if (!graph_path.ok()) return Fail(graph_path.status());
  if (!traces_path.ok()) return Fail(traces_path.status());
  if (!out_path.ok()) return Fail(out_path.status());
  const std::string method_name = flags.Get("method", "joint-bayes");
  const std::uint64_t seed = flags.GetInt("seed", 1);

  UnattributedTrainOptions options;
  if (method_name == "joint-bayes") {
    options.method = UnattributedMethod::kJointBayes;
  } else if (method_name == "goyal") {
    options.method = UnattributedMethod::kGoyal;
  } else if (method_name == "saito-em") {
    options.method = UnattributedMethod::kSaitoEm;
  } else if (method_name == "filtered") {
    options.method = UnattributedMethod::kFiltered;
  } else {
    return Fail(Status::InvalidArgument("unknown method '", method_name,
                                        "'"));
  }
  options.no_evidence_mean = flags.GetDouble("no-evidence-mean", 0.0);
  if (!flags.value_error().ok()) return Fail(flags.value_error());

  auto reference = LoadPointIcm(*graph_path);
  if (!reference.ok()) return Fail(reference.status());
  auto traces = LoadUnattributedEvidence(*traces_path);
  if (!traces.ok()) return Fail(traces.status());
  Rng rng(seed);
  auto model = TrainUnattributedModel(reference->graph_ptr(), *traces,
                                      options, rng);
  if (!model.ok()) return Fail(model.status());
  const Status status = SavePointIcm(model->ToPointIcm(), *out_path);
  if (!status.ok()) return Fail(status);
  std::printf("trained %s model from %zu traces -> %s\n",
              UnattributedMethodName(options.method),
              traces->traces.size(), out_path->c_str());
  return 0;
}

/// Loads a model file as a PointIcm, accepting either format (betaICM
/// files are collapsed to their expected model).
Result<PointIcm> LoadAnyModel(const std::string& path) {
  auto point = LoadPointIcm(path);
  if (point.ok()) return point;
  auto beta = LoadBetaIcm(path);
  if (beta.ok()) return beta->ExpectedIcm();
  return Status::ParseError("'", path,
                            "' is neither a point nor a beta model (",
                            point.status().message(), ")");
}

// ------------------------------------------------------------------ query
int CmdQuery(Flags& flags) {
  auto model_path = flags.Require("model");
  if (!model_path.ok()) return Fail(model_path.status());
  const NodeId source = flags.GetNode("source", 0);
  const NodeId sink = flags.GetNode("sink", 0);
  const std::size_t samples = flags.GetInt("samples", 20000);
  const std::uint64_t seed = flags.GetInt("seed", 1);
  const std::size_t chains = flags.GetInt("chains", 4);
  const bool progress = flags.GetBool("progress");
  if (!flags.value_error().ok()) return Fail(flags.value_error());
  auto conditions = ParseFlowConditions(flags.Get("given", ""));
  if (!conditions.ok()) return Fail(conditions.status());
  auto backend = serve::ParseQueryBackend(flags.Get("backend", "bank"));
  if (!backend.ok()) return Fail(backend.status());

  auto model = LoadAnyModel(*model_path);
  if (!model.ok()) return Fail(model.status());

  // --backend analytic / auto: the sampling-free message-passing estimator
  // (src/analytic/) answers unconditional queries directly from the edge
  // probabilities. Auto falls back to sampling unless the reachable
  // subgraph admits an exact analytic regime; explicit analytic fails
  // descriptively instead of silently sampling.
  if (*backend != serve::QueryBackend::kBank) {
    if (!conditions->empty()) {
      if (*backend == serve::QueryBackend::kAnalytic) {
        return Fail(Status::FailedPrecondition(
            "--backend analytic cannot answer conditioned queries: "
            "conditioning (Eq. 7-8) is a filter over retained rows -- use "
            "--backend bank"));
      }
    } else {
      if (source >= model->graph().num_nodes() ||
          sink >= model->graph().num_nodes()) {
        return Fail(Status::OutOfRange("source/sink out of range for ",
                                       model->graph().num_nodes(),
                                       " nodes"));
      }
      analytic::AnalyticOptions analytic_options;
      analytic_options.require_exact =
          *backend == serve::QueryBackend::kAuto;
      const NodeId sources[] = {source};
      const NodeId sinks[] = {sink};
      auto answer = analytic::ReachProbabilities(
          model->graph(), model->probs(), sources, sinks, analytic_options);
      if (answer.ok()) {
        std::printf(
            "Pr[%u ~> %u] = %.5f   (analytic backend, %s regime, expected "
            "error %.3g)\n",
            source, sink, answer->probability[0],
            analytic::AnalyticMethodName(answer->method),
            answer->report.expected_error);
        return 0;
      }
      if (*backend == serve::QueryBackend::kAnalytic) {
        return Fail(answer.status());
      }
      std::fprintf(stderr, "auto backend: %s; answering by sampling\n",
                   answer.status().message().c_str());
    }
  }

  MultiChainOptions options;
  options.num_chains = std::max<std::size_t>(1, chains);
  options.use_batch_reachability = !flags.GetBool("scalar-reachability");
  options.mh.burn_in = 4 * model->graph().num_edges();
  options.mh.thinning =
      std::max<std::size_t>(8, model->graph().num_edges() / 8);
  auto engine =
      MultiChainSampler::Create(*model, *conditions, options, seed);
  if (!engine.ok()) return Fail(engine.status());

  // With --progress, split the run into batches and report throughput and
  // the live convergence diagnostics on stderr after each one. The chains
  // persist across batches, so the union of the batches is one long run.
  const std::size_t batches =
      progress ? std::min<std::size_t>(10, std::max<std::size_t>(
                                               1, samples / chains))
               : 1;
  double weighted_sum = 0.0;
  std::size_t drawn = 0;
  MultiChainEstimate estimate;
  WallTimer timer;
  std::uint64_t last_steps = engine->steps_taken();
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t remaining_batches = batches - b;
    const std::size_t request =
        std::max<std::size_t>(1, (samples - std::min(samples, drawn)) /
                                     remaining_batches);
    estimate = engine->EstimateFlowProbability(source, sink, request);
    const std::size_t batch_drawn =
        engine->num_chains() * engine->SamplesPerChain(request);
    weighted_sum += estimate.value * static_cast<double>(batch_drawn);
    drawn += batch_drawn;
    if (progress) {
      const double lap = timer.Lap();
      const std::uint64_t steps = engine->steps_taken();
      const double steps_per_s =
          lap > 0.0 ? static_cast<double>(steps - last_steps) / lap : 0.0;
      last_steps = steps;
      std::fprintf(stderr,
                   "progress: %zu/%zu samples | %zu chains x %.0f steps/s "
                   "| R-hat %.3f | ESS %.0f\n",
                   drawn, std::max(samples, drawn), engine->num_chains(),
                   steps_per_s / static_cast<double>(engine->num_chains()),
                   estimate.diagnostics.rhat, estimate.diagnostics.ess);
    }
  }
  const double p = weighted_sum / static_cast<double>(drawn);
  const double acceptance =
      static_cast<double>(engine->steps_accepted()) /
      static_cast<double>(std::max<std::uint64_t>(1, engine->steps_taken()));
  std::printf(
      "Pr[%u ~> %u%s] = %.5f   (%zu MH samples over %zu chains, acceptance "
      "%.2f, R-hat %.3f, ESS %.0f)\n",
      source, sink, conditions->empty() ? "" : " | conditions", p, drawn,
      engine->num_chains(), acceptance, estimate.diagnostics.rhat,
      estimate.diagnostics.ess);
  if (estimate.diagnostics.rhat > 1.05) {
    std::fprintf(stderr,
                 "warning: R-hat %.3f > 1.05 — chains may not have "
                 "converged; consider more samples\n",
                 estimate.diagnostics.rhat);
  }
  return 0;
}

// ------------------------------------------------------------------ serve

int CmdServe(Flags& flags);  // children re-enter it after the fork

/// Raised by SIGTERM/SIGINT; the serve loops poll it and read it as EOF,
/// so a signalled daemon unwinds cleanly and still writes --metrics-json /
/// --trace-json artifacts.
volatile std::sig_atomic_t g_serve_interrupt = 0;

void HandleServeSignal(int) { g_serve_interrupt = 1; }

/// Installs the handlers WITHOUT SA_RESTART: a read(2) parked on stdin
/// returns EINTR, the LineReader notices the flag, and the loop exits.
void InstallServeSignalHandlers() {
  struct sigaction sa {};
  sa.sa_handler = HandleServeSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Shared-nothing multi-process serving: forks `shard_procs` children
/// BEFORE any thread exists, each building a full bank replica (same model,
/// same --seed → bit-identical rows and answers) and serving the NDJSON
/// protocol on its end of a socketpair; the parent runs a ProcessRouter
/// bridging stdin/stdout. Children never refresh (replicas must not
/// diverge) and ingest is rejected up front for the same reason.
int ServeShardProcs(Flags& flags, std::size_t shard_procs,
                    double shard_timeout_ms) {
  if (flags.GetBool("ingest") || !flags.Get("ingest-from", "").empty()) {
    return Fail(Status::InvalidArgument(
        "--shard-procs is shared-nothing (round-robin over replicas); "
        "streamed evidence would reach only one replica — serve --ingest "
        "from a single daemon instead"));
  }
  if (flags.GetDouble("refresh-ms", 0.0) != 0.0) {
    return Fail(Status::InvalidArgument(
        "--refresh-ms would let shard replicas drift apart; --shard-procs "
        "serves the boot generation only"));
  }
  signal(SIGPIPE, SIG_IGN);
  std::vector<int> child_fds;
  std::vector<pid_t> children;
  for (std::size_t k = 0; k < shard_procs; ++k) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      return Fail(Status::IOError("socketpair(): ", std::strerror(errno)));
    }
    const pid_t pid = fork();
    if (pid < 0) return Fail(Status::IOError("fork(): ", std::strerror(errno)));
    if (pid == 0) {
      // Child: full replica with the socketpair as its stdio — CmdServe's
      // foreground ServeStdio loop then speaks NDJSON to the router and
      // exits when the router closes its end.
      close(sv[0]);
      for (const int fd : child_fds) close(fd);
      dup2(sv[1], 0);
      dup2(sv[1], 1);
      if (sv[1] > 1) close(sv[1]);
      // Periodic writers are router-side concerns — P replicas rewriting
      // the same artifact paths would clobber each other.
      flags.Set("stats-every", "0");
      flags.Set("slow-query-ms", "0");
      const int code = CmdServe(flags);
      std::fflush(nullptr);
      std::_Exit(code);
    }
    close(sv[1]);
    child_fds.push_back(sv[0]);
    children.push_back(pid);
  }
  serve::ProcessRouter::Options router_options;
  router_options.max_batch = flags.GetInt("max-batch", 64);
  router_options.child_timeout_ms = shard_timeout_ms;
  router_options.interrupt = &g_serve_interrupt;
  InstallServeSignalHandlers();
  Status status;
  {
    serve::ProcessRouter router(std::move(child_fds), router_options);
    status = router.Serve(0, 1);
    if (status.ok() && !flags.Get("trace-json", "").empty()) {
      // Pull every replica's spans into the router's trace state before
      // the children go away; Main's --trace-json write then exports the
      // merged per-query span tree.
      (void)router.MergedTraceExport();
    }
    // Router destruction closes the child fds → each replica's serve loop
    // sees EOF and exits; reap them so no zombies outlive the command.
  }
  for (const pid_t pid : children) {
    int wstatus = 0;
    (void)waitpid(pid, &wstatus, 0);
  }
  if (!status.ok()) return Fail(status);
  return 0;
}

int CmdServe(Flags& flags) {
  auto model_path = flags.Require("model");
  if (!model_path.ok()) return Fail(model_path.status());
  const std::uint64_t seed = flags.GetInt("seed", 1);
  const std::size_t shard_procs = flags.GetInt("shard-procs", 0);
  const double shard_timeout_ms = flags.GetDouble("shard-timeout-ms", 0.0);

  serve::BankOptions bank_options;
  bank_options.num_states = flags.GetInt("bank-states", 4096);
  bank_options.chain.num_chains =
      std::max<std::size_t>(1, flags.GetInt("chains", 4));
  bank_options.chain.num_threads = flags.GetInt("threads", 0);

  serve::ServerOptions server_options;
  server_options.max_batch = flags.GetInt("max-batch", 64);
  server_options.socket_path = flags.Get("socket", "");
  server_options.refresh_interval_ms = flags.GetDouble("refresh-ms", 0.0);
  server_options.drift_threshold = flags.GetDouble("drift-threshold", 0.0);
  server_options.engine.min_conditional_rows =
      flags.GetInt("min-conditional-rows", 32);
  server_options.engine.num_threads = flags.GetInt("threads", 0);
  // Escape hatch: answer row scans one BFS per row over the packed rows
  // instead of 64 rows per pass over the edge-major plane.
  server_options.engine.use_batch_reachability =
      !flags.GetBool("scalar-reachability");
  // Replay lane width: 64 keeps the classic one-word path, 256/512 replay
  // 4/8-word strips, auto picks the widest strip the bank fills. Answers
  // are bit-identical at every width.
  auto lanes = ParseLaneWidth(flags.Get("lanes", "auto"));
  if (!lanes.ok()) return Fail(lanes.status());
  server_options.engine.lanes = *lanes;
  // Default backend for wire requests that don't name one; per-request
  // "backend" fields override it.
  auto default_backend =
      serve::ParseQueryBackend(flags.Get("backend", "bank"));
  if (!default_backend.ok()) return Fail(default_backend.status());
  server_options.engine.default_backend = *default_backend;
  // --stats-every refreshes the --metrics-json artifact periodically while
  // the daemon runs (atomically, via rename), instead of only at exit.
  server_options.stats_interval_ms = flags.GetDouble("stats-every", 0.0);
  if (server_options.stats_interval_ms > 0.0) {
    server_options.stats_path = flags.Get("metrics-json", "");
    if (server_options.stats_path.empty()) {
      return Fail(Status::InvalidArgument(
          "--stats-every needs --metrics-json (the snapshot destination)"));
    }
  }
  server_options.slow_query_ms = flags.GetDouble("slow-query-ms", 0.0);
  server_options.slow_query_path = flags.Get("slow-query-log", "");
  if (server_options.slow_query_ms > 0.0 &&
      server_options.slow_query_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--slow-query-ms needs --slow-query-log (the NDJSON destination)"));
  }
  server_options.interrupt = &g_serve_interrupt;

  // Streaming ingestion: --ingest enables the serve-connection verb,
  // --ingest-from additionally tails a file/FIFO side channel. Its tuning
  // flags are read even when ingestion is off, so none of them is
  // mistaken for an unknown flag below.
  const std::string ingest_from = flags.Get("ingest-from", "");
  const bool ingest_enabled = flags.GetBool("ingest") || !ingest_from.empty();
  stream::IngestorOptions ingest_options;
  ingest_options.trainer.decay = flags.GetDouble("decay", 1.0);
  ingest_options.trainer.window = flags.GetInt("window", 0);
  ingest_options.epoch_every = flags.GetInt("epoch-every", 64);
  ingest_options.queue_capacity = flags.GetInt("queue-capacity", 1024);
  ingest_options.seed = seed;
  const std::string queue_policy = flags.Get("queue-policy", "park");
  const std::string ingest_format = flags.Get("ingest-format", "auto");

  // Every flag serve knows has been read: anything left over is a typo or
  // a retired flag, refused by name before any bank is filled.
  const Status unused = flags.CheckUnused();
  if (!unused.ok()) return Fail(unused);

  if (shard_procs > 0) {
    flags.Set("shard-procs", "0");  // children take the in-process path
    return ServeShardProcs(flags, shard_procs, shard_timeout_ms);
  }
  // Catch SIGTERM/SIGINT from the start: a signal during bank warm-up is
  // remembered and read as EOF once the serve loop begins, so a signalled
  // daemon always unwinds cleanly and writes its observability artifacts.
  InstallServeSignalHandlers();

  auto model = LoadAnyModel(*model_path);
  if (!model.ok()) return Fail(model.status());

  std::shared_ptr<stream::StreamIngestor> ingestor;
  if (ingest_enabled) {
    auto policy = stream::ParseQueueOverflowPolicy(queue_policy);
    if (!policy.ok()) return Fail(policy.status());
    ingest_options.queue_policy = *policy;
    auto format = stream::ParseStreamFormat(ingest_format);
    if (!format.ok()) return Fail(format.status());
    ingest_options.format = *format;
    const Status valid = ingest_options.Validate();
    if (!valid.ok()) return Fail(valid);
    ingestor = std::make_shared<stream::StreamIngestor>(model->graph_ptr(),
                                                        *model,
                                                        ingest_options);
  }

  WallTimer warmup;
  auto bank = serve::SampleBank::Create(*model, bank_options, seed);
  if (!bank.ok()) return Fail(bank.status());
  std::fprintf(stderr,
               "serve: bank ready — %zu rows x %u edges over %zu streams in "
               "%.1f ms%s%s\n",
               bank->rows_per_generation(), model->graph().num_edges(),
               bank_options.chain.num_chains, warmup.Millis(),
               server_options.socket_path.empty() ? "" : ", socket ",
               server_options.socket_path.c_str());

  auto server =
      serve::Server::Create(std::move(bank).ValueOrDie(), server_options);
  if (!server.ok()) return Fail(server.status());
  if (ingestor != nullptr) server->AttachIngestor(ingestor);
  Status status = server->Start();
  if (!status.ok()) return Fail(status);
  if (!ingest_from.empty()) {
    status = ingestor->StartFeed(ingest_from);
    if (!status.ok()) return Fail(status);
    std::fprintf(stderr, "serve: tailing evidence feed %s\n",
                 ingest_from.c_str());
  }
  // Foreground loop: NDJSON batches on stdin/stdout until EOF (or
  // SIGTERM/SIGINT, which the reader converts into a clean EOF so the
  // observability artifacts below still get written).
  status = server->ServeStdio();
  // Order matters: the feed flush may publish a final epoch whose drift
  // queues one last rebuild, which Stop() drains before returning — so the
  // post-run metrics snapshot reflects everything that was ingested.
  if (ingestor != nullptr) ingestor->StopFeed();
  server->Stop();
  if (!status.ok()) return Fail(status);
  return 0;
}

// --------------------------------------------------------------- maximize

/// Parses a comma-separated node-id list flag like "0,3,17"; empty → empty.
/// An item that is not a number, or does not fit below kInvalidNode, is
/// refused naming the flag.
Result<std::vector<NodeId>> ParseNodeListFlag(const std::string& text,
                                              const char* flag) {
  std::vector<NodeId> nodes;
  const char* pos = text.data();
  const char* const end = pos + text.size();
  while (pos < end) {
    if (*pos == ',' || *pos == ' ') {
      ++pos;
      continue;
    }
    NodeId value = 0;
    const auto [next, ec] = std::from_chars(pos, end, value);
    if (ec != std::errc() || value == kInvalidNode ||
        (next != end && *next != ',' && *next != ' ')) {
      return Status::InvalidArgument("--", flag,
                                     " expects a comma-separated list of "
                                     "integers below 4294967295, got '",
                                     text, "'");
    }
    nodes.push_back(value);
    pos = next;
  }
  return nodes;
}

int CmdMaximize(Flags& flags) {
  auto model_path = flags.Require("model");
  if (!model_path.ok()) return Fail(model_path.status());
  const std::size_t k = flags.GetInt("k", 3);
  const std::uint64_t seed = flags.GetInt("seed", 1);
  auto model = LoadAnyModel(*model_path);
  if (!model.ok()) return Fail(model.status());
  auto candidates = ParseNodeListFlag(flags.Get("candidates", ""),
                                      "candidates");
  if (!candidates.ok()) return Fail(candidates.status());

  if (flags.GetBool("monte-carlo")) {
    // The pre-bank reference path: CELF over fresh cascade simulations.
    InfluenceMaxOptions options;
    options.num_seeds = k;
    options.simulations = flags.GetInt("simulations", 500);
    options.candidates = *candidates;
    if (!flags.value_error().ok()) return Fail(flags.value_error());
    Rng rng(seed);
    WallTimer timer;
    auto result = MaximizeInfluence(*model, options, rng);
    if (!result.ok()) return Fail(result.status());
    std::printf(
        "selected %zu seeds (monte-carlo CELF, %zu simulations/estimate, "
        "%zu evaluations, %.1f ms)\n",
        result->seeds.size(), options.simulations, result->evaluations,
        timer.Millis());
    for (std::size_t i = 0; i < result->seeds.size(); ++i) {
      std::printf("  %zu. node %u   spread %.3f\n", i + 1,
                  result->seeds[i], result->expected_spread[i]);
    }
    return 0;
  }

  // Bank-backed default: invert retained pseudo-states into RR sketches
  // and run CELF as popcount max-coverage — no fresh simulation.
  auto community = ParseNodeListFlag(flags.Get("community", ""),
                                     "community");
  if (!community.ok()) return Fail(community.status());
  auto given = ParseFlowConditions(flags.Get("given", ""));
  if (!given.ok()) return Fail(given.status());

  serve::BankOptions bank_options;
  bank_options.num_states = flags.GetInt("bank-states", 2048);
  bank_options.chain.num_chains =
      std::max<std::size_t>(1, flags.GetInt("chains", 4));
  bank_options.chain.num_threads = flags.GetInt("threads", 0);
  const std::size_t min_conditional_rows =
      flags.GetInt("min-conditional-rows", 32);
  if (!flags.value_error().ok()) return Fail(flags.value_error());
  WallTimer warmup;
  auto bank = serve::SampleBank::Create(*model, bank_options, seed);
  if (!bank.ok()) return Fail(bank.status());
  const std::shared_ptr<const serve::BankGeneration> generation =
      bank->Acquire();
  std::fprintf(stderr, "maximize: bank ready — %zu rows in %.1f ms\n",
               generation->num_rows(), warmup.Millis());

  WallTimer sketch_timer;
  seedmax::RrIndex index(bank->graph_ptr());
  std::shared_ptr<const seedmax::RrSketchSet> sketches;
  if (community->empty() && given->empty()) {
    auto acquired = index.Acquire(generation);
    if (!acquired.ok()) return Fail(acquired.status());
    sketches = std::move(*acquired);
  } else {
    seedmax::RrBuildOptions build;
    build.targets = std::move(*community);
    build.given = std::move(*given);
    build.min_conditional_rows = min_conditional_rows;
    build.pool = &index.pool();
    auto built = seedmax::RrSketchSet::Build(index.view(), *generation,
                                             build);
    if (!built.ok()) return Fail(built.status());
    sketches =
        std::make_shared<const seedmax::RrSketchSet>(std::move(*built));
  }
  const double sketch_ms = sketch_timer.Millis();

  seedmax::SeedMaxOptions options;
  options.num_seeds = k;
  options.candidates = std::move(*candidates);
  WallTimer select_timer;
  auto result = seedmax::SelectSeeds(*sketches, options);
  if (!result.ok()) return Fail(result.status());
  std::printf(
      "selected %zu seeds (bank-sketch backend: %llu RR sketches over %zu "
      "rows, sketch build %.1f ms, select %.1f ms, %zu evaluations, %zu "
      "prune hits)\n",
      result->picks.size(),
      static_cast<unsigned long long>(result->num_sketches),
      result->effective_rows, sketch_ms, select_timer.Millis(),
      result->evaluations, result->prune_hits);
  for (std::size_t i = 0; i < result->picks.size(); ++i) {
    const seedmax::SeedPick& pick = result->picks[i];
    std::printf("  %zu. node %u   spread %.3f ± %.3f\n", i + 1, pick.node,
                pick.spread, pick.mcse);
  }
  return 0;
}

// ----------------------------------------------------------------- impact
int CmdImpact(Flags& flags) {
  auto model_path = flags.Require("model");
  if (!model_path.ok()) return Fail(model_path.status());
  const NodeId source = flags.GetNode("source", 0);
  const std::size_t cascades = flags.GetInt("cascades", 10000);
  const std::uint64_t seed = flags.GetInt("seed", 1);
  if (!flags.value_error().ok()) return Fail(flags.value_error());
  auto backend = serve::ParseQueryBackend(flags.Get("backend", "bank"));
  if (!backend.ok()) return Fail(backend.status());
  auto model = LoadAnyModel(*model_path);
  if (!model.ok()) return Fail(model.status());
  if (source >= model->graph().num_nodes()) {
    return Fail(Status::OutOfRange("source out of range for ",
                                   model->graph().num_nodes(), " nodes"));
  }

  // --backend analytic / auto: fig 4's histogram as an exact PMF by
  // subtree convolution (core/impact.h AnalyticImpact) — no cascades
  // simulated at all. Auto falls back to simulation unless the reachable
  // subgraph admits an exact regime.
  if (*backend != serve::QueryBackend::kBank) {
    analytic::AnalyticOptions analytic_options;
    analytic_options.require_exact = *backend == serve::QueryBackend::kAuto;
    auto pmf = AnalyticImpact(*model, source, analytic_options);
    if (pmf.ok()) {
      std::printf("impact of %u (analytic backend, %s regime): mean %.2f\n",
                  source, analytic::AnalyticMethodName(pmf->method),
                  pmf->Mean());
      for (std::size_t k = 0; k < pmf->probs.size() && k <= 20; ++k) {
        std::string bar(static_cast<std::size_t>(pmf->probs[k] * 50), '#');
        std::printf("%4zu %-50s %.4f\n", k, bar.c_str(), pmf->probs[k]);
      }
      return 0;
    }
    if (*backend == serve::QueryBackend::kAnalytic) {
      return Fail(pmf.status());
    }
    std::fprintf(stderr, "auto backend: %s; answering by simulation\n",
                 pmf.status().message().c_str());
  }

  Rng rng(seed);
  const ImpactDistribution dist =
      SimulateImpact(*model, source, cascades, rng);
  std::printf("impact of %u over %zu cascades: mean %.2f\n", source,
              cascades, dist.Mean());
  for (std::size_t k = 0; k < dist.counts.size() && k <= 20; ++k) {
    const double frac = static_cast<double>(dist.counts[k]) /
                        static_cast<double>(dist.Total());
    std::string bar(static_cast<std::size_t>(frac * 50), '#');
    std::printf("%4zu %-50s %.4f\n", k, bar.c_str(), frac);
  }
  return 0;
}

// ------------------------------------------------------------------- info
int CmdInfo(Flags& flags) {
  auto model_path = flags.Require("model");
  if (!model_path.ok()) return Fail(model_path.status());
  auto beta = LoadBetaIcm(*model_path);
  if (beta.ok()) {
    double min_mean = 1.0, max_mean = 0.0, total_obs = 0.0;
    for (EdgeId e = 0; e < beta->graph().num_edges(); ++e) {
      const double mean = beta->EdgeBeta(e).Mean();
      min_mean = std::min(min_mean, mean);
      max_mean = std::max(max_mean, mean);
      total_obs += beta->alpha(e) + beta->beta(e) - 2.0;
    }
    std::printf("%s — edge means in [%.4f, %.4f], %.0f observations\n",
                beta->ToString().c_str(), min_mean, max_mean, total_obs);
    return 0;
  }
  auto point = LoadPointIcm(*model_path);
  if (point.ok()) {
    double min_p = 1.0, max_p = 0.0;
    for (EdgeId e = 0; e < point->graph().num_edges(); ++e) {
      min_p = std::min(min_p, point->prob(e));
      max_p = std::max(max_p, point->prob(e));
    }
    std::printf("%s — edge probabilities in [%.4f, %.4f]\n",
                point->ToString().c_str(), min_p, max_p);
    return 0;
  }
  return Fail(point.status());
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: infoflow <command> [--flags]\n"
      "commands:\n"
      "  simulate            --out-dir D [--users N] [--messages M]\n"
      "                      [--tag-objects K] [--seed S]\n"
      "                      [--topology pref|tree] (tree = random recursive\n"
      "                      tree, the analytic backend's exact regime)\n"
      "  train-attributed    --graph truth.picm --evidence e.att --out m.bicm\n"
      "  train-unattributed  --graph truth.picm --traces t.utr --out m.picm\n"
      "                      [--method joint-bayes|goyal|saito-em|filtered]\n"
      "  query               --model m --source U --sink V [--given \"a>b c!>d\"]\n"
      "                      [--backend auto|analytic|bank] (analytic = the\n"
      "                      sampling-free message-passing estimator; auto\n"
      "                      picks it only when exact on the subgraph)\n"
      "                      [--samples N] [--chains K] [--seed S] [--progress]\n"
      "                      [--scalar-reachability] (one BFS per sample)\n"
      "  serve               --model m [--bank-states N] [--chains K]\n"
      "                      [--socket path.sock] [--max-batch B]\n"
      "                      [--refresh-ms T] [--min-conditional-rows F]\n"
      "                      [--scalar-reachability] (one BFS per bank row\n"
      "                      instead of 64 rows per bit-parallel pass)\n"
      "                      [--lanes 64|256|512|auto] (rows per replay pass:\n"
      "                      256/512 run 4/8-word reachability strips; auto\n"
      "                      picks the widest strip the bank fills; answers\n"
      "                      are bit-identical at every width)\n"
      "                      [--seed S] (seeds every bank fill; --chains K\n"
      "                      splits the rows into K streams for R-hat)\n"
      "                      [--backend auto|analytic|bank] (default backend\n"
      "                      for requests without a \"backend\" field)\n"
      "                      (NDJSON queries on stdin -> responses on stdout)\n"
      "    replicas:         [--shard-procs P] (fork P full-replica child\n"
      "                      processes, round-robin NDJSON routing; fault\n"
      "                      isolation, not speed; excludes\n"
      "                      --ingest/--refresh-ms)\n"
      "                      [--shard-timeout-ms T] (per-batch child deadline)\n"
      "    streaming:        [--ingest] ({\"ingest\":\"<record>\"} lines on the\n"
      "                      connection) [--ingest-from path] (tail a file or\n"
      "                      FIFO of evidence lines) [--ingest-format\n"
      "                      auto|attributed|traces] [--decay D] [--window W]\n"
      "                      [--epoch-every N] [--drift-threshold T]\n"
      "                      [--queue-capacity C]\n"
      "                      [--queue-policy park|drop-newest|drop-oldest]\n"
      "    observability:    [--stats-every T] (rewrite --metrics-json every\n"
      "                      T ms while serving) [--slow-query-ms T]\n"
      "                      [--slow-query-log P] (append an NDJSON record\n"
      "                      per slow or deadline-dead query)\n"
      "                      admin verbs on the connection: {\"stats\":true}\n"
      "                      {\"health\":true} {\"trace\":{\"enable\":true|false}}\n"
      "                      {\"trace\":{\"export\":true}}\n"
      "  maximize            --model m [--k K] (top-k seed selection: invert\n"
      "                      the sample bank into reverse-reachable sketches,\n"
      "                      CELF max-coverage by popcount)\n"
      "                      [--bank-states N] [--chains C] [--seed S]\n"
      "                      [--candidates \"0,1,2\"] (eligible seeds)\n"
      "                      [--community \"7,8,9\"] (maximize reach into these\n"
      "                      nodes) [--given \"a>b c!>d\"] (condition the\n"
      "                      pseudo-states, Eq. 7-8)\n"
      "                      [--min-conditional-rows F]\n"
      "                      [--monte-carlo] (fresh-simulation CELF instead of\n"
      "                      the bank) [--simulations N]\n"
      "  impact              --model m --source U [--cascades N]\n"
      "                      [--backend auto|analytic|bank] (analytic = exact\n"
      "                      PMF by subtree convolution, no cascades)\n"
      "  info                --model m\n"
      "  parse-tweets        --tweets t.csv --graph truth.picm --out e.att\n"
      "observability (any command, written after a successful run):\n"
      "  --metrics-json P    dump the metrics registry snapshot as JSON\n"
      "  --metrics-csv P     same snapshot as CSV\n"
      "  --trace-json P      record spans; dump chrome://tracing JSON\n"
      "                      (serve --shard-procs merges replica spans into\n"
      "                      one query_id-keyed tree)\n");
  return 2;
}

/// Writes `content` to `path`, truncating any existing file.
Status WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '", path, "' for writing");
  out << content;
  out.flush();
  if (!out) return Status::IOError("failed writing '", path, "'");
  return Status::OK();
}

int Dispatch(const std::string& command, Flags& flags) {
  if (command == "simulate") return CmdSimulate(flags);
  if (command == "parse-tweets") return CmdParseTweets(flags);
  if (command == "train-attributed") return CmdTrainAttributed(flags);
  if (command == "train-unattributed") return CmdTrainUnattributed(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "maximize") return CmdMaximize(flags);
  if (command == "impact") return CmdImpact(flags);
  if (command == "info") return CmdInfo(flags);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.error().ok()) return Fail(flags.error());

  // Observability flags apply to every command. Tracing must be armed
  // before dispatch; the artifacts are written only on success.
  const std::string metrics_json = flags.Get("metrics-json", "");
  const std::string metrics_csv = flags.Get("metrics-csv", "");
  const std::string trace_json = flags.Get("trace-json", "");
  if (!trace_json.empty()) obs::Tracing::Enable();

  const int code = Dispatch(command, flags);
  if (code != 0) return code;

  if (!metrics_json.empty() || !metrics_csv.empty()) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    if (!metrics_json.empty()) {
      const Status status = WriteTextFile(metrics_json, snapshot.ToJson());
      if (!status.ok()) return Fail(status);
    }
    if (!metrics_csv.empty()) {
      const Status status = WriteTextFile(metrics_csv, snapshot.ToCsv());
      if (!status.ok()) return Fail(status);
    }
  }
  if (!trace_json.empty()) {
    const Status status =
        WriteTextFile(trace_json, obs::Tracing::ExportChromeJson());
    if (!status.ok()) return Fail(status);
  }
  return 0;
}

}  // namespace
}  // namespace infoflow

int main(int argc, char** argv) { return infoflow::Main(argc, argv); }
