/// \file impact_analytic.cc
/// \brief The analytic backend vs bank replay on the queries both can
/// answer (Eq. 5 flow, Fig. 4 impact), across three structural shapes:
///
///   tree   — random recursive tree: the analytic subtree-convolution
///            regime is exact, and `--backend auto` must route here. Two
///            ratios of bank replay seconds to analytic seconds:
///            `speedup_vs_bank` for flows from one source, which the bank
///            answers in one merged scan (its best case; CI gates ≥ 1× on
///            the quick shape), and `distinct_speedup_vs_bank` for flows
///            from distinct sources, one scan each (CI gates ≥ 20×).
///   loopy  — the same tree plus a few shortcut edges, kept under the
///            feasibility scorer's excess-ratio budget: the loopy fallback
///            answers, and the record tracks its worst deviation from bank
///            replay in 3×MCSE units.
///   dense  — a uniform random graph far over the budget: the estimator
///            must refuse and `auto` must route to the bank (also gated).
///   deep   — a 100k-node random recursive tree (20k on --quick) queried
///            from sources whose subtrees hold 2–4k nodes, 16 sinks each,
///            through AnswerBatch + SerializeResult one request at a time:
///            `us_per_request` tracks the per-request cost of the analytic
///            path, which must scale with the reachable subtree, not with
///            the graph. Every answer is checked bit for bit against the
///            tree path product (`max_dev_vs_path_product`, gated 0 in CI).
///
/// Emits BENCH_analytic.json (in --csv <dir> when given, else the working
/// directory): one record per shape with both walls, the auto-routing
/// verdict, the analytic regime, and the deviation accounting, plus
/// hardware_threads and metrics_enabled (both shift absolute numbers; the
/// committed baseline records them for comparability).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/impact.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "stats/rng.h"
#include "util/json.h"
#include "util/string_util.h"

namespace infoflow::bench {
namespace {

struct Shape {
  std::string name;
  std::shared_ptr<const DirectedGraph> graph;
  std::vector<double> probs;
};

/// The tree everything else derives from: quick keeps CI fast, full is the
/// committed-baseline scale.
Shape TreeShape(const BenchArgs& args, Rng& rng) {
  const NodeId nodes = args.quick ? 400 : 2000;
  Shape shape;
  shape.name = "tree";
  shape.graph = std::make_shared<const DirectedGraph>(
      RandomTreeGraph(nodes, 8, rng));
  shape.probs.resize(shape.graph->num_edges());
  for (double& p : shape.probs) p = rng.Uniform(0.25, 0.75);
  return shape;
}

/// The tree plus shortcut edges: excess ratio ~0.08, comfortably inside
/// the loopy fallback's 0.25 budget but never tree-exact.
Shape LoopyShape(const Shape& tree, Rng& rng) {
  const auto n = static_cast<NodeId>(tree.graph->num_nodes());
  GraphBuilder builder(n);
  for (EdgeId e = 0; e < tree.graph->num_edges(); ++e) {
    const Edge& edge = tree.graph->edge(e);
    builder.AddEdge(edge.src, edge.dst).CheckOK();
  }
  std::size_t added = 0;
  const std::size_t extra = tree.graph->num_edges() / 12;
  while (added < extra) {
    const auto u = static_cast<NodeId>(rng.NextBounded(n));
    const auto v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    if (builder.AddEdgeIfAbsent(u, v)) ++added;
  }
  Shape shape;
  shape.name = "loopy";
  shape.graph = std::make_shared<const DirectedGraph>(
      std::move(builder).Build());
  shape.probs.resize(shape.graph->num_edges());
  for (double& p : shape.probs) p = rng.Uniform(0.2, 0.6);
  return shape;
}

Shape DenseShape(const BenchArgs& args, Rng& rng) {
  const NodeId nodes = args.quick ? 200 : 600;
  const EdgeId edges = args.quick ? 1200 : 4200;
  Shape shape;
  shape.name = "dense";
  shape.graph = std::make_shared<const DirectedGraph>(
      UniformRandomGraph(nodes, edges, rng));
  shape.probs.resize(shape.graph->num_edges());
  for (double& p : shape.probs) p = rng.Uniform(0.1, 0.5);
  return shape;
}

/// The deep-source row: per-request cost of 16-sink analytic answers on
/// 2–4k-node subtrees of a large tree, serialized as the daemon would.
Result<JsonValue> DeepSourceRecord(const BenchArgs& args, Rng& rng) {
  const NodeId nodes = args.quick ? 20000 : 100000;
  auto graph =
      std::make_shared<const DirectedGraph>(RandomTreeGraph(nodes, 4, rng));
  std::vector<double> probs(graph->num_edges());
  for (double& p : probs) p = rng.Uniform(0.3, 0.9);
  const PointIcm model(graph, probs);
  serve::BankOptions bank_options;
  bank_options.num_states = 256;
  bank_options.chain.num_chains = 4;
  auto bank = serve::SampleBank::Create(model, bank_options, args.seed);
  IF_RETURN_NOT_OK(bank.status());
  const auto generation = bank->Acquire();
  serve::QueryEngineOptions engine_options;
  engine_options.default_backend = serve::QueryBackend::kAuto;
  auto engine = serve::QueryEngine::Create(bank->graph_ptr(), engine_options);
  IF_RETURN_NOT_OK(engine.status());

  // Parents precede children in a random recursive tree, so one reverse
  // sweep accumulates every subtree size.
  std::vector<NodeId> parent(nodes, kInvalidNode);
  std::vector<EdgeId> parent_edge(nodes, kInvalidEdge);
  std::vector<std::size_t> subtree(nodes, 1);
  for (NodeId v = nodes; v-- > 1;) {
    parent_edge[v] = graph->InEdges(v)[0];
    parent[v] = graph->edge(parent_edge[v]).src;
    subtree[parent[v]] += subtree[v];
  }
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < nodes; ++v) {
    if (subtree[v] >= 2000 && subtree[v] <= 4000) pool.push_back(v);
  }
  if (pool.empty()) return Status::Internal("no 2-4k-node subtree");

  const std::size_t num_requests = args.quick ? 64 : 256;
  std::vector<serve::QueryRequest> requests;
  double mean_subtree = 0.0;
  for (std::size_t q = 0; q < num_requests; ++q) {
    serve::QueryRequest request;
    request.kind = serve::QueryKind::kCommunity;
    request.id = "deep" + std::to_string(q);
    const NodeId source = pool[rng.NextBounded(pool.size())];
    request.sources = {source};
    mean_subtree += static_cast<double>(subtree[source]);
    // Sinks: the ends of random downward walks from the source.
    for (int k = 0; k < 16; ++k) {
      NodeId v = source;
      while (graph->OutDegree(v) > 0 && rng.NextBounded(8) != 0) {
        const auto out = graph->OutEdges(v);
        v = graph->edge(out[rng.NextBounded(out.size())]).dst;
      }
      request.sinks.push_back(v);
    }
    requests.push_back(std::move(request));
  }
  mean_subtree /= static_cast<double>(num_requests);

  std::vector<serve::QueryResult> answers(num_requests);
  std::size_t bytes = 0;
  const double seconds = TimeBest(args.quick ? 3 : 5, [&] {
    bytes = 0;
    for (std::size_t q = 0; q < num_requests; ++q) {
      answers[q] =
          std::move(engine->AnswerBatch(*generation, {requests[q]}).front());
      bytes += serve::SerializeResult(requests[q], answers[q]).size();
    }
  });

  // The tree path product, multiplied top-down exactly as the estimator
  // telescopes it, so the comparison can demand bit equality.
  double max_dev = 0.0;
  std::string method = "tree-exact";
  for (std::size_t q = 0; q < num_requests; ++q) {
    const serve::QueryResult& result = answers[q];
    if (!result.status.ok() || result.backend != serve::QueryBackend::kAnalytic) {
      return Status::Internal("deep request ", q, " not answered analytically: ",
                              result.status.ToString());
    }
    if (result.analytic_method != analytic::AnalyticMethod::kTreeExact) {
      method = analytic::AnalyticMethodName(result.analytic_method);
    }
    for (const serve::SinkEstimate& estimate : result.estimates) {
      std::vector<EdgeId> path;
      for (NodeId v = estimate.sink; v != requests[q].sources[0];
           v = parent[v]) {
        path.push_back(parent_edge[v]);
      }
      double product = 1.0;
      for (auto e = path.rbegin(); e != path.rend(); ++e) product *= probs[*e];
      max_dev = std::max(max_dev, std::abs(estimate.value - product));
    }
  }

  const double us_per_request =
      seconds * 1e6 / static_cast<double>(num_requests);
  std::printf("%6s | %u nodes, %zu 16-sink requests on %.0f-node subtrees: "
              "%.1f us/request (answer + serialize), %s, max dev vs path "
              "product %.3g\n",
              "deep", nodes, num_requests, mean_subtree, us_per_request,
              method.c_str(), max_dev);
  JsonValue::Object record;
  record["shape"] = "deep";
  record["nodes"] = static_cast<double>(nodes);
  record["edges"] = static_cast<double>(graph->num_edges());
  record["bank_rows"] = static_cast<double>(generation->num_rows());
  record["num_queries"] = static_cast<double>(num_requests);
  record["sinks_per_request"] = 16.0;
  record["mean_subtree_nodes"] = mean_subtree;
  record["us_per_request"] = us_per_request;
  record["response_bytes"] = static_cast<double>(bytes);
  record["analytic_method"] = method;
  record["auto_backend"] = "analytic";
  record["max_dev_vs_path_product"] = max_dev;
  return JsonValue(std::move(record));
}

int Run(const BenchArgs& args) {
  Banner("Analytic cascade-size backend vs bank replay");
  Rng rng(args.seed);
  // The bank is serving-tier sized: replay cost scales with rows while
  // the analytic path's does not, so a toy bank would understate the very
  // gap the backend exists to close.
  const std::size_t bank_states = args.quick ? 16384 : 65536;
  const std::size_t num_queries = args.quick ? 64 : 256;
  const int reps = args.quick ? 3 : 5;
  const std::size_t impact_cascades = args.quick ? 20000 : 100000;

  std::vector<Shape> shapes;
  shapes.push_back(TreeShape(args, rng));
  shapes.push_back(LoopyShape(shapes.front(), rng));
  shapes.push_back(DenseShape(args, rng));

  CsvWriter csv({"shape", "bank_s", "analytic_s", "speedup_vs_bank",
                 "distinct_speedup_vs_bank", "max_dev_mcse"});
  JsonValue::Array records;
  std::printf("%6s | %10s %10s | %8s | %8s | %9s | %8s | %s\n", "shape",
              "bank s", "analytic s", "speedup", "distinct", "max dev",
              "regime", "auto routes to");
  for (const Shape& shape : shapes) {
    const PointIcm model(shape.graph, shape.probs);
    serve::BankOptions bank_options;
    bank_options.num_states = bank_states;
    bank_options.chain.num_chains = 4;
    WallTimer warmup;
    auto bank = serve::SampleBank::Create(model, bank_options, args.seed);
    if (!bank.ok()) {
      std::fprintf(stderr, "bank: %s\n", bank.status().ToString().c_str());
      return 1;
    }
    const auto generation = bank->Acquire();
    std::printf("%s: %zu rows in %.1f ms; %u nodes / %u edges\n",
                shape.name.c_str(), generation->num_rows(), warmup.Millis(),
                shape.graph->num_nodes(), shape.graph->num_edges());

    auto engine = serve::QueryEngine::Create(bank->graph_ptr(), {});
    if (!engine.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }

    // The same unconditional flow batch, answered by both backends. The
    // source is the tree root (node 0 in every shape), so the analytic
    // subgraph is the whole structure — the worst analytic case, not a
    // cherry-picked shallow one.
    Rng pick(args.seed + 7);
    std::vector<serve::QueryRequest> bank_batch;
    std::vector<serve::QueryRequest> analytic_batch;
    std::vector<serve::QueryRequest> auto_batch;
    for (std::size_t q = 0; q < num_queries; ++q) {
      serve::QueryRequest request;
      request.kind = serve::QueryKind::kFlow;
      request.sources = {0};
      request.sinks = {static_cast<NodeId>(
          1 + pick.NextBounded(shape.graph->num_nodes() - 1))};
      request.backend = serve::QueryBackend::kBank;
      bank_batch.push_back(request);
      request.backend = serve::QueryBackend::kAnalytic;
      analytic_batch.push_back(request);
      request.backend = serve::QueryBackend::kAuto;
      auto_batch.push_back(request);
    }

    std::vector<serve::QueryResult> bank_results;
    const double bank_s = TimeBest(reps, [&] {
      bank_results = engine->AnswerBatch(*generation, bank_batch);
    });

    std::vector<serve::QueryResult> analytic_results;
    const double analytic_s = TimeBest(reps, [&] {
      analytic_results = engine->AnswerBatch(*generation, analytic_batch);
    });
    const bool refused = !analytic_results.front().status.ok();
    std::string regime = "refused";
    double max_dev_mcse = 0.0;
    double speedup = 0.0;
    if (!refused) {
      regime = analytic::AnalyticMethodName(
          analytic_results.front().analytic_method);
      speedup = bank_s / analytic_s;
      for (std::size_t q = 0; q < num_queries; ++q) {
        const auto& exact = analytic_results[q].estimates[0];
        const auto& replay = bank_results[q].estimates[0];
        // Zero-hit sinks report MCSE 0; floor at the binomial zero-count
        // bound so rare events grade against ~1/rows, not infinity.
        const double mcse =
            std::max(replay.diagnostics.mcse,
                     1.0 / static_cast<double>(generation->num_rows()));
        max_dev_mcse = std::max(
            max_dev_mcse, std::abs(exact.value - replay.value) / mcse);
      }
    }

    // Where does `auto` actually route? One batch, majority verdict (it is
    // unanimous on these shapes — recorded per shape for the CI gate).
    const auto auto_results = engine->AnswerBatch(*generation, auto_batch);
    std::size_t analytic_routed = 0;
    for (const auto& result : auto_results) {
      if (result.status.ok() &&
          result.backend == serve::QueryBackend::kAnalytic) {
        ++analytic_routed;
      }
    }
    const std::string auto_backend =
        analytic_routed * 2 >= num_queries ? "analytic" : "bank";

    // The same number of flows from distinct sources: the first nodes with
    // children (the upper levels, whose subtrees are largest), each to the
    // end of a random downward walk. The bank merges same-source frontiers
    // into one scan, so the batch above is its best case; here it pays one
    // scan of every row per request, while the analytic path still pays
    // only each source's reachable subgraph.
    double distinct_bank_s = 0.0;
    double distinct_analytic_s = 0.0;
    double distinct_speedup = 0.0;
    if (!refused) {
      std::vector<serve::QueryRequest> distinct_bank;
      std::vector<serve::QueryRequest> distinct_analytic;
      for (NodeId source = 0; distinct_bank.size() < num_queries &&
                              source < shape.graph->num_nodes();
           ++source) {
        if (shape.graph->OutDegree(source) == 0) continue;
        NodeId sink = source;
        do {
          const auto out = shape.graph->OutEdges(sink);
          sink = shape.graph->edge(out[pick.NextBounded(out.size())]).dst;
        } while (shape.graph->OutDegree(sink) > 0 && pick.NextBounded(4) != 0);
        serve::QueryRequest request;
        request.kind = serve::QueryKind::kFlow;
        request.sources = {source};
        request.sinks = {sink};
        request.backend = serve::QueryBackend::kBank;
        distinct_bank.push_back(request);
        request.backend = serve::QueryBackend::kAnalytic;
        distinct_analytic.push_back(std::move(request));
      }
      distinct_bank_s = TimeBest(reps, [&] {
        engine->AnswerBatch(*generation, distinct_bank);
      });
      distinct_analytic_s = TimeBest(reps, [&] {
        engine->AnswerBatch(*generation, distinct_analytic);
      });
      distinct_speedup = distinct_bank_s / distinct_analytic_s;
    }

    // Fig. 4's impact histogram through both paths (exact shapes only).
    double impact_analytic_s = 0.0;
    double impact_simulate_s = 0.0;
    auto impact = AnalyticImpact(model, 0);
    if (impact.ok()) {
      impact_analytic_s = TimeBest(reps, [&] {
        impact = AnalyticImpact(model, 0);
      });
      impact_simulate_s = TimeBest(1, [&] {
        Rng sim_rng(args.seed + 11);
        SimulateImpact(model, 0, impact_cascades, sim_rng);
      });
    }

    std::printf("%6s | %10.4f %10.4f | %7.1fx | %7.1fx | %8.2f σ | %8s | %s\n",
                shape.name.c_str(), bank_s, analytic_s, speedup,
                distinct_speedup, max_dev_mcse, regime.c_str(),
                auto_backend.c_str());
    csv.AppendRow({shape.name, FormatDouble(bank_s, 6),
                   FormatDouble(analytic_s, 6), FormatDouble(speedup, 4),
                   FormatDouble(distinct_speedup, 4),
                   FormatDouble(max_dev_mcse, 4)});

    JsonValue::Object record;
    record["shape"] = shape.name;
    record["nodes"] = static_cast<double>(shape.graph->num_nodes());
    record["edges"] = static_cast<double>(shape.graph->num_edges());
    record["bank_rows"] = static_cast<double>(generation->num_rows());
    record["num_queries"] = static_cast<double>(num_queries);
    record["bank_s"] = bank_s;
    record["analytic_s"] = analytic_s;
    record["analytic_refused"] = refused;
    record["analytic_method"] = regime;
    record["speedup_vs_bank"] = speedup;
    record["distinct_bank_s"] = distinct_bank_s;
    record["distinct_analytic_s"] = distinct_analytic_s;
    record["distinct_speedup_vs_bank"] = distinct_speedup;
    record["max_dev_mcse"] = max_dev_mcse;
    record["auto_backend"] = auto_backend;
    record["impact_analytic_s"] = impact_analytic_s;
    record["impact_simulate_s"] = impact_simulate_s;
    record["impact_cascades"] = static_cast<double>(impact_cascades);
    records.push_back(JsonValue(std::move(record)));
  }

  auto deep = DeepSourceRecord(args, rng);
  if (!deep.ok()) {
    std::fprintf(stderr, "deep: %s\n", deep.status().ToString().c_str());
    return 1;
  }
  records.push_back(std::move(*deep));

  JsonValue::Object doc;
  doc["bench"] = "impact_analytic";
  doc["bank_states"] = static_cast<double>(bank_states);
  doc["quick"] = args.quick;
  doc["seed"] = static_cast<double>(args.seed);
  doc["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  doc["metrics_enabled"] = obs::MetricsEnabled();
  doc["results"] = JsonValue(std::move(records));
  const std::string json = JsonValue(std::move(doc)).Dump();
  const std::string path = args.WantCsv()
                               ? args.csv_dir + "/BENCH_analytic.json"
                               : "BENCH_analytic.json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("shape: bank replay pays O(rows) popcount scans per query; "
              "the analytic path pays one BFS of the reachable subgraph "
              "plus per-node products, so the gap scales with the bank "
              "size — and vanishes to a refusal on dense multi-path "
              "structure.\n");
  args.MaybeWriteCsv(csv, "impact_analytic.csv");
  return 0;
}

}  // namespace
}  // namespace infoflow::bench

int main(int argc, char** argv) {
  return infoflow::bench::Run(infoflow::bench::ParseArgs(argc, argv));
}
