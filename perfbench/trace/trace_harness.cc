// Traced replay of one benchmark workload, in process.
//
// Sets up bank, engine, ingestor and sketch index the way `infoflow serve`
// does, replays the workload's script through the layers' public entry
// points, and records one span per call: name, start, end, parent and
// request id. Spans stay in memory; they are written to --spans when the run
// ends, and the per-layer medians are printed as one JSON line on stdout.
// Every answer is serialized to --out so perfbench/run.py can byte-compare
// it with the daemon's.
//
// Script lines (written by perfbench/run.py):
//   L <request line>     answered alone, as an interactive daemon request
//   B <n>                the next n lines are answered as one burst
//
//   perfbench_trace --model m.picm --script s.txt --out answers.ndjson
//       --spans spans.json --bank-states 16384 --seed 1 --threads 2
//       --chains 4 [--backend auto] [--ingest --epoch-every 100]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytic/cascade_estimator.h"
#include "analytic/feasibility.h"
#include "core/serialization.h"
#include "graph/strip_plane.h"
#include "graph/strip_reachability.h"
#include "seedmax/rr_index.h"
#include "seedmax/seed_selector.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "stats/convergence.h"
#include "stream/ingestor.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace infoflow;
using Clock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
  double Us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  int Begin(std::string name, std::uint64_t request) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), NowNs(), 0,
                      stack_.empty() ? -1 : stack_.back(), request});
    stack_.push_back(index);
    return index;
  }
  void End(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(std::string name, std::uint64_t request)
      : index_(g_tracer.Begin(std::move(name), request)) {}
  ~Scope() { g_tracer.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

struct Flags {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::size_t GetInt(const std::string& key, std::size_t fallback) const {
    return static_cast<std::size_t>(
        std::stoull(Get(key, std::to_string(fallback))));
  }
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_trace: %s\n", message.c_str());
  return 1;
}

/// One workload replay: the daemon's set-up plus per-line dispatch.
class Replay {
 public:
  Replay(serve::SampleBank bank,
         serve::QueryEngineOptions engine_options,
         std::shared_ptr<stream::StreamIngestor> ingestor)
      : bank_(std::move(bank)),
        engine_options_(engine_options),
        engine_(serve::QueryEngine::Create(bank_.graph_ptr(), engine_options)
                    .ValueOrDie()),
        dispatcher_(*bank_.graph_ptr(), engine_options_),
        rr_index_(bank_.graph_ptr()),
        ingestor_(std::move(ingestor)) {
    if (ingestor_ != nullptr) {
      ingestor_->SetEpochCallback(
          [this](std::shared_ptr<const stream::ModelEpoch> epoch) {
            if (epoch->drift > 0.0) pending_ = std::move(epoch);
          });
    }
    AcquirePlane();
  }

  ~Replay() {
    if (ingestor_ != nullptr) ingestor_->SetEpochCallback(nullptr);
  }
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Answers one interactive line; returns the serialized response.
  std::string Line(const std::string& line) {
    const std::uint64_t rid = ++next_request_;
    const std::int64_t p0 = NowNs();
    std::optional<JsonValue> json;
    std::optional<serve::QueryRequest> query;
    std::optional<serve::TopkRequest> topk;
    std::optional<serve::IngestRequest> ingest;
    {
      Scope span("protocol.parse", rid);
      auto parsed = ParseJson(line);
      if (!parsed.ok()) return serve::SerializeParseError(parsed.status());
      json.emplace(std::move(*parsed));
      if (serve::IsTopkRequest(*json)) {
        auto r = serve::ParseTopkRequest(*json);
        if (!r.ok()) return serve::SerializeParseError(r.status());
        topk.emplace(std::move(*r));
      } else if (serve::IsIngestRequest(*json)) {
        auto r = serve::ParseIngestRequest(*json);
        if (!r.ok()) return serve::SerializeParseError(r.status());
        ingest.emplace(std::move(*r));
      } else {
        auto r = serve::ParseRequest(*json);
        if (!r.ok()) return serve::SerializeParseError(r.status());
        query.emplace(std::move(*r));
      }
    }
    const double parse_ms = static_cast<double>(NowNs() - p0) / 1e6;
    if (ingest) return Ingest(*ingest, rid);
    std::string out = topk ? Topk(*topk, rid) : Query(*query, rid);
    inprocess_ms_.push_back(parse_ms + core_ms_);
    return out;
  }

  /// Answers one burst of query lines in a single engine batch.
  std::vector<std::string> Burst(const std::vector<std::string>& lines) {
    std::vector<serve::QueryRequest> requests;
    for (const std::string& line : lines) {
      Scope span("protocol.parse", ++next_request_);
      auto request = serve::ParseRequestLine(line);
      if (!request.ok()) {
        std::fprintf(stderr, "perfbench_trace: bad burst line %s\n",
                     line.c_str());
        std::exit(1);
      }
      requests.push_back(std::move(*request));
    }
    const auto generation = bank_.Acquire();
    std::vector<serve::QueryResult> results;
    {
      Scope span("engine.batch64", next_request_);
      results = engine_.AnswerBatch(*generation, requests);
    }
    std::vector<std::string> out;
    for (std::size_t k = 0; k < requests.size(); ++k) {
      Scope span("protocol.serialize", next_request_);
      out.push_back(serve::SerializeResult(requests[k], results[k]));
    }
    return out;
  }

  void TimePoolHandoff() {
    ThreadPool pool(engine_options_.num_threads);
    for (int i = 0; i < 2000; ++i) {
      Scope span("pool.handoff", 0);
      ParallelFor(pool, pool.size(), [](std::size_t) {});
    }
  }

  const std::vector<double>& plan_self_ms() const { return plan_self_ms_; }
  /// Span indices of the epoch-completing ingest lines.
  const std::vector<int>& publish_indices() const { return publish_indices_; }
  const std::vector<double>& inprocess_ms() const { return inprocess_ms_; }
  unsigned strip_words() const { return strip_words_; }

 private:
  void AcquirePlane() {
    const auto generation = bank_.Acquire();
    strip_words_ = ResolveStripWords(engine_options_.lanes,
                                     generation->num_rows(),
                                     bank_.graph_ptr()->num_nodes(),
                                     bank_.graph_ptr()->num_edges());
    plane_generation_ = generation;
    plane_ = nullptr;
    // At one word per strip the engine reads the fill's edge-major blocks.
    if (strip_words_ == 1) return;
    Scope span("bank.strip_plane", 0);
    plane_ = generation->AcquireStripPlane(strip_words_);
  }

  std::string Query(const serve::QueryRequest& request, std::uint64_t rid) {
    const auto generation = bank_.Acquire();
    if (generation != plane_generation_) AcquirePlane();
    std::vector<serve::QueryResult> results;
    const std::int64_t a0 = NowNs();
    {
      Scope span("engine.answer", rid);
      results = engine_.AnswerBatch(*generation, {request});
    }
    const double answer_ms = static_cast<double>(NowNs() - a0) / 1e6;
    std::string out;
    {
      Scope span("protocol.serialize", rid);
      out = serve::SerializeResult(request, results.front());
    }
    core_ms_ = static_cast<double>(NowNs() - a0) / 1e6;
    // Layer timings of the same request, outside the engine's own span.
    std::vector<serve::QueryResult> routed(1);
    std::vector<std::size_t> bank_bound;
    {
      Scope span("dispatch.partition", rid);
      bank_bound = dispatcher_.Partition(*generation, {request}, routed);
    }
    if (bank_bound.empty()) {
      const PointIcm* model = generation->model();
      analytic::AnalyticOptions options = engine_options_.analytic;
      options.require_exact = true;
      {
        Scope span("analytic.feasibility", rid);
        (void)analytic::AssessFeasibility(*bank_.graph_ptr(), request.sources,
                                          options.feasibility);
      }
      Scope span("analytic.reach", rid);
      (void)analytic::ReachProbabilities(*bank_.graph_ptr(), model->probs(),
                                         request.sources, options);
      return out;
    }
    // The engine spreads the strips over its workers, so its critical path
    // holds about 1/num_threads of the replay and diagnostics work.
    plan_self_ms_.push_back(
        answer_ms - KernelMs(*generation, request, rid) /
                        static_cast<double>(engine_.num_threads()));
    return out;
  }

  /// Replays the request's sources over every strip and computes one
  /// sink's chain diagnostics; returns the single-thread kernel +
  /// diagnostics time of the same request (diagnostics once per sink).
  double KernelMs(const serve::BankGeneration& generation,
                  const serve::QueryRequest& request, std::uint64_t rid) {
    std::vector<NodeId> sources = request.sources;
    NodeId sink = request.sinks.empty() ? 0 : request.sinks.front();
    std::size_t sinks = request.sinks.size();
    if (request.kind == serve::QueryKind::kJoint) {
      for (const FlowConstraint& flow : request.flows) {
        sources.push_back(flow.source);
      }
      sink = request.flows.front().sink;
      sinks = 1;
    }
    if (workspace_ == nullptr || workspace_->words() != strip_words_) {
      workspace_ = StripWorkspace::Create(strip_words_, *bank_.graph_ptr());
    }
    const std::size_t rows = generation.num_rows();
    std::vector<double> draws(rows, 0.0);
    const std::size_t strips =
        plane_ != nullptr ? plane_->num_strips : generation.num_blocks();
    const std::int64_t k0 = NowNs();
    for (std::size_t s = 0; s < strips; ++s) {
      const std::uint64_t block_mask = generation.BlockLaneMask(s);
      {
        Scope span("reach.strip", rid);
        if (plane_ != nullptr) {
          workspace_->Run(*bank_.graph_ptr(), sources, plane_->StripWords(s),
                          plane_->StripLaneMask(s));
        } else {
          workspace_->Run(*bank_.graph_ptr(), sources,
                          generation.BlockEdgeWords(s), &block_mask);
        }
      }
      const std::uint64_t* mask = workspace_->ReachedMask(sink);
      for (unsigned w = 0; w < strip_words_; ++w) {
        for (unsigned lane = 0; lane < 64; ++lane) {
          const std::size_t row = 64 * (s * strip_words_ + w) + lane;
          if (row < rows) draws[row] = static_cast<double>((mask[w] >> lane) & 1U);
        }
      }
    }
    const std::int64_t k1 = NowNs();
    std::vector<std::vector<double>> chains(generation.num_chains());
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const auto begin = draws.begin() + static_cast<std::ptrdiff_t>(
                                             c * generation.rows_per_chain());
      chains[c].assign(begin, begin + static_cast<std::ptrdiff_t>(
                                          generation.rows_per_chain()));
    }
    const std::int64_t d0 = NowNs();
    {
      Scope span("diag.sink", rid);
      (void)ComputeChainDiagnostics(chains);
    }
    const double diag_ms = static_cast<double>(NowNs() - d0) / 1e6;
    return static_cast<double>(k1 - k0) / 1e6 +
           diag_ms * static_cast<double>(sinks);
  }

  std::string Topk(const serve::TopkRequest& request, std::uint64_t rid) {
    const std::int64_t a0 = NowNs();
    const auto generation = bank_.Acquire();
    std::shared_ptr<const seedmax::RrSketchSet> sketches;
    {
      Scope span(generation->id() == sketched_generation_ ? "seedmax.acquire"
                                                          : "seedmax.build",
                 rid);
      auto acquired = rr_index_.Acquire(generation);
      if (!acquired.ok()) return serve::SerializeTopkError(request,
                                                           acquired.status());
      sketches = std::move(*acquired);
    }
    sketched_generation_ = generation->id();
    seedmax::SeedMaxOptions options;
    options.num_seeds = request.k;
    options.candidates = request.candidates;
    Result<seedmax::SeedMaxResult> result = [&] {
      Scope span("seedmax.select", rid);
      return seedmax::SelectSeeds(*sketches, options);
    }();
    std::string out;
    {
      Scope span("protocol.serialize", rid);
      out = result.ok() ? serve::SerializeTopkResult(request, *result)
                        : serve::SerializeTopkError(request, result.status());
    }
    core_ms_ = static_cast<double>(NowNs() - a0) / 1e6;
    return out;
  }

  std::string Ingest(const serve::IngestRequest& request, std::uint64_t rid) {
    if (ingestor_ == nullptr) {
      return serve::SerializeIngestError(
          request, Status::FailedPrecondition("ingestion is not enabled"));
    }
    const std::uint64_t epoch_before = ingestor_->CurrentEpoch()->id;
    const int index = g_tracer.Begin("stream.ingest", rid);
    auto ack = ingestor_->IngestLine(request.record);
    g_tracer.End(index);
    if (ack.ok() && ack->epoch != epoch_before) {
      publish_indices_.push_back(index);
    }
    if (pending_ != nullptr) {
      // The daemon's rebuild worker applies the epoch off-thread while the
      // client polls; the replay applies it before the next line.
      std::shared_ptr<const stream::ModelEpoch> epoch = std::move(pending_);
      pending_ = nullptr;
      Scope span("bank.rebuild", rid);
      (void)bank_.Rebuild(epoch->model, epoch->id);
    }
    return ack.ok() ? serve::SerializeIngestAck(request, ack->absorbed_total,
                                                ack->epoch)
                    : serve::SerializeIngestError(request, ack.status());
  }

  serve::SampleBank bank_;
  serve::QueryEngineOptions engine_options_;
  serve::QueryEngine engine_;
  serve::BackendDispatcher dispatcher_;
  seedmax::RrIndex rr_index_;
  std::shared_ptr<stream::StreamIngestor> ingestor_;
  std::shared_ptr<const stream::ModelEpoch> pending_;
  std::shared_ptr<const StripPlane> plane_;
  std::shared_ptr<const serve::BankGeneration> plane_generation_;
  unsigned strip_words_ = 1;
  std::unique_ptr<StripWorkspace> workspace_;
  std::uint64_t sketched_generation_ = 0;
  std::uint64_t next_request_ = 0;
  std::vector<int> publish_indices_;
  std::vector<double> plan_self_ms_;
  /// Answer + serialize time of the last query or topk line.
  double core_ms_ = 0.0;
  std::vector<double> inprocess_ms_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Fail("unexpected argument " + key);
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values[key] = argv[++i];
    } else {
      flags.values[key] = "1";
    }
  }
  auto model = LoadPointIcm(flags.Get("model", ""));
  if (!model.ok()) return Fail(model.status().ToString());
  const std::size_t num_edges = model->graph().num_edges();
  const std::uint64_t seed = flags.GetInt("seed", 1);
  const std::size_t threads = flags.GetInt("threads", 2);

  // The configuration CmdServe (tools/infoflow_cli.cc) builds from the same
  // flags.
  serve::BankOptions bank_options;
  bank_options.num_states = flags.GetInt("bank-states", 4096);
  bank_options.chain.num_chains = flags.GetInt("chains", 4);
  bank_options.chain.num_threads = threads;
  bank_options.chain.mh.burn_in = 4 * num_edges;
  bank_options.chain.mh.thinning = std::max<std::size_t>(8, num_edges / 8);

  serve::QueryEngineOptions engine_options;
  engine_options.min_conditional_rows = 32;
  engine_options.num_threads = threads;
  engine_options.lanes = LaneWidth::kAuto;
  engine_options.default_backend =
      serve::ParseQueryBackend(flags.Get("backend", "bank")).ValueOrDie();

  std::shared_ptr<stream::StreamIngestor> ingestor;
  if (flags.Get("ingest", "0") == "1") {
    stream::IngestorOptions ingest_options;
    ingest_options.epoch_every = flags.GetInt("epoch-every", 64);
    ingest_options.seed = seed;
    ingestor = std::make_shared<stream::StreamIngestor>(model->graph_ptr(),
                                                        *model,
                                                        ingest_options);
  }

  std::optional<Result<serve::SampleBank>> bank;
  {
    Scope span("bank.fill", 0);
    bank.emplace(serve::SampleBank::Create(*model, bank_options, seed));
  }
  if (!bank->ok()) return Fail(bank->status().ToString());
  Replay replay(std::move(**bank), engine_options, ingestor);

  std::ifstream script(flags.Get("script", ""));
  std::ofstream out(flags.Get("out", ""));
  if (!script.is_open() || !out.is_open()) return Fail("cannot open files");
  std::string line;
  while (std::getline(script, line)) {
    if (line.rfind("L ", 0) == 0) {
      out << replay.Line(line.substr(2)) << '\n';
    } else if (line.rfind("B ", 0) == 0) {
      std::vector<std::string> burst(std::stoul(line.substr(2)));
      for (std::string& l : burst) std::getline(script, l);
      for (const std::string& r : replay.Burst(burst)) out << r << '\n';
    }
  }
  replay.TimePoolHandoff();

  // Per-layer medians per call; 0 where the workload never calls the layer.
  std::map<std::string, std::vector<double>> us;
  const std::vector<Span>& spans = g_tracer.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.Us();
  }
  std::map<std::string, double> self_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    us[spans[i].name].push_back(spans[i].Us());
    self_us[spans[i].name] += spans[i].Us() - child_us[i];
  }
  std::vector<double> publish_us;
  for (const int index : replay.publish_indices()) {
    publish_us.push_back(spans[static_cast<std::size_t>(index)].Us());
  }
  std::vector<double> ingest_us;
  {
    std::vector<bool> is_publish(spans.size(), false);
    for (const int index : replay.publish_indices()) {
      is_publish[static_cast<std::size_t>(index)] = true;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "stream.ingest" && !is_publish[i]) {
        ingest_us.push_back(spans[i].Us());
      }
    }
  }
  const auto med = [&](const char* name) { return Median(us[name]); };
  const double strip_us = med("reach.strip");
  JsonValue::Object metrics;
  metrics["protocol.parse_us"] = med("protocol.parse");
  metrics["protocol.serialize_us"] = med("protocol.serialize");
  metrics["engine.answer_ms"] = med("engine.answer") / 1e3;
  metrics["engine.batch64_ms"] = med("engine.batch64") / 1e3;
  metrics["dispatch.partition_us"] = med("dispatch.partition");
  metrics["plan.self_ms"] = Median(replay.plan_self_ms());
  metrics["diag.sink_us"] = med("diag.sink");
  metrics["pool.handoff_us"] = med("pool.handoff");
  metrics["reach.strip_us"] = strip_us;
  metrics["reach.ns_per_row"] =
      strip_us * 1e3 / (64.0 * static_cast<double>(replay.strip_words()));
  metrics["bank.fill_s"] = med("bank.fill") / 1e6;
  metrics["bank.rebuild_s"] = med("bank.rebuild") / 1e6;
  metrics["bank.strip_plane_ms"] = med("bank.strip_plane") / 1e3;
  metrics["analytic.feasibility_us"] = med("analytic.feasibility");
  metrics["analytic.reach_us"] = med("analytic.reach");
  metrics["seedmax.build_ms"] = med("seedmax.build") / 1e3;
  metrics["seedmax.select_ms"] = med("seedmax.select") / 1e3;
  metrics["stream.ingest_us"] = Median(ingest_us);
  metrics["stream.publish_ms"] = Median(publish_us) / 1e3;
  JsonValue::Object layers;
  for (const auto& [name, values] : us) {
    JsonValue::Object layer;
    layer["calls"] = static_cast<double>(values.size());
    layer["self_ms"] = self_us[name] / 1e3;
    layers[name] = std::move(layer);
  }
  JsonValue::Object summary;
  summary["metrics"] = std::move(metrics);
  summary["layers"] = std::move(layers);
  summary["inprocess_p50_ms"] = Median(replay.inprocess_ms());
  summary["strip_words"] = static_cast<double>(replay.strip_words());
  std::printf("%s\n", JsonValue(std::move(summary)).Dump().c_str());

  std::ofstream span_out(flags.Get("spans", ""));
  span_out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    span_out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << spans[i].name
             << "\",\"start_ns\":" << spans[i].start_ns
             << ",\"end_ns\":" << spans[i].end_ns
             << ",\"parent\":" << spans[i].parent
             << ",\"request\":" << spans[i].request << "}";
  }
  span_out << "]\n";
  return 0;
}
