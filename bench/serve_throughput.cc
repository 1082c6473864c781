/// \file serve_throughput.cc
/// \brief Serving benchmark: fresh chains per query vs shared SampleBank
/// reuse (src/serve), on the fig6 random graph, at several bank sizes.
///
/// The fresh baseline answers each query the pre-serve way: build a
/// MultiChainSampler, pay burn-in (4m, thinning max(8, m/8)), draw N
/// retained samples, estimate. The bank path draws N i.i.d. rows once per
/// generation, then answers a 100-query batch by replaying BFS over them,
/// with the engine merging queries that share a source frontier into one
/// scan (queries draw their sources from a small pool, as real serving
/// traffic does). Both paths use the same state count, so the ratio
/// isolates reuse (the bank's independent rows are, if anything, the more
/// precise).
///
/// Each bank size also times the same batch through the engine's scalar
/// reference path (one BFS per row, `use_batch_reachability = false`);
/// `reach_speedup` is the bit-parallel 64-rows-per-pass win over it, with
/// the answers cross-checked for exact equality first. Both sides take the
/// best of 3 runs so the CI gate on the ratio is stable under scheduler
/// noise.
///
/// Emits BENCH_serve.json (in --csv <dir> when given, else the working
/// directory) with one record per bank size; `speedup_batch` is the
/// headline fresh-vs-bank ratio at the 100-query batch and `reach_speedup`
/// the scalar-vs-batch BFS ratio the CI perf-smoke gate checks.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/multi_chain.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "util/json.h"

namespace infoflow::bench {
namespace {

using serve::BankOptions;
using serve::QueryEngine;
using serve::QueryEngineOptions;
using serve::QueryRequest;
using serve::QueryResult;
using serve::SampleBank;

/// A 100-query batch: single-source flow queries whose sources come from a
/// small pool of popular nodes (so the engine's frontier dedup has the
/// repeats real traffic gives it) and whose sinks are uniform.
std::vector<QueryRequest> MakeBatch(std::size_t batch, NodeId nodes,
                                    Rng& rng) {
  constexpr std::int64_t kSourcePool = 16;
  std::vector<NodeId> pool(kSourcePool);
  for (NodeId& s : pool) s = static_cast<NodeId>(rng.UniformInt(0, nodes - 1));
  std::vector<QueryRequest> queries(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    QueryRequest& request = queries[q];
    // snprintf + fresh-string construction sidesteps a GCC 12 -Wrestrict
    // false positive on string concatenation in this loop (PR 105329).
    char id[32];
    std::snprintf(id, sizeof(id), "q%zu", q);
    request.id = std::string(id);
    request.kind = serve::QueryKind::kFlow;
    request.sources = {
        pool[static_cast<std::size_t>(rng.UniformInt(0, kSourcePool - 1))]};
    auto sink = static_cast<NodeId>(rng.UniformInt(0, nodes - 1));
    while (sink == request.sources[0]) {
      sink = static_cast<NodeId>(rng.UniformInt(0, nodes - 1));
    }
    request.sinks = {sink};
  }
  return queries;
}

int Run(const BenchArgs& args) {
  Banner("Serve throughput — fresh chains per query vs bank reuse");
  Rng rng(args.seed);
  const NodeId nodes = args.quick ? 1000 : 6000;
  const EdgeId edges = args.quick ? 2500 : 14000;
  const std::size_t batch = 100;
  auto graph = std::make_shared<const DirectedGraph>(
      UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(graph->num_edges());
  for (double& p : probs) p = rng.Uniform(0.05, 0.95);
  const PointIcm model(graph, probs);
  const std::size_t m = graph->num_edges();

  MultiChainOptions chain;
  chain.num_chains = 4;
  // Tuning of the fresh baseline's chains; the bank ignores `mh`.
  chain.mh.burn_in = 4 * m;
  chain.mh.thinning = std::max<std::size_t>(8, m / 8);

  const std::vector<QueryRequest> queries = MakeBatch(batch, nodes, rng);
  const std::vector<std::size_t> bank_sizes =
      args.quick ? std::vector<std::size_t>{128, 512}
                 : std::vector<std::size_t>{256, 1024, 4096};
  // Fresh answering is slow by construction; time a few queries and scale.
  const std::size_t fresh_reps = args.quick ? 3 : 5;

  CsvWriter csv({"bank_states", "fill_s", "bank_batch_s", "bank_queries_per_s",
                 "scalar_batch_s", "reach_speedup", "fresh_per_query_s",
                 "fresh_batch_s", "speedup_batch", "speedup_incl_fill"});
  JsonValue::Array records;
  std::printf("%11s | %9s %12s %12s | %12s %9s | %14s %12s | %9s %9s\n",
              "bank states", "fill s", "bank batch s", "bank q/s",
              "scalar s", "bit-par", "fresh s/query", "fresh batch s",
              "speedup", "w/ fill");
  for (const std::size_t bank_states : bank_sizes) {
    BankOptions options;
    options.num_states = bank_states;
    options.chain = chain;

    WallTimer timer;
    auto bank = SampleBank::Create(model, options, args.seed);
    bank.status().CheckOK();
    const double fill_s = timer.Seconds();

    auto engine = QueryEngine::Create(bank->graph_ptr(), QueryEngineOptions{});
    engine.status().CheckOK();
    const auto generation = bank->Acquire();
    engine->AnswerBatch(*generation, {queries[0]});  // warm the pool
    std::vector<QueryResult> results;
    const double bank_batch_s = TimeBest(
        3, [&] { results = engine->AnswerBatch(*generation, queries); });
    for (const QueryResult& result : results) result.status.CheckOK();

    // Scalar-reachability reference: same engine, same bank, one BFS per
    // row instead of 64 per pass. The ratio isolates the bit-parallel win
    // from the sampling-reuse win.
    QueryEngineOptions scalar_options;
    scalar_options.use_batch_reachability = false;
    auto scalar_engine = QueryEngine::Create(bank->graph_ptr(), scalar_options);
    scalar_engine.status().CheckOK();
    scalar_engine->AnswerBatch(*generation, {queries[0]});  // warm the pool
    std::vector<QueryResult> scalar_results;
    const double scalar_batch_s = TimeBest(3, [&] {
      scalar_results = scalar_engine->AnswerBatch(*generation, queries);
    });
    for (std::size_t q = 0; q < results.size(); ++q) {
      scalar_results[q].status.CheckOK();
      if (scalar_results[q].estimates[0].value !=
          results[q].estimates[0].value) {
        std::fprintf(stderr, "batch/scalar divergence on query %zu\n", q);
        return 1;
      }
    }
    const double reach_speedup = scalar_batch_s / bank_batch_s;

    // Fresh baseline: a new engine per query, same chain tuning, same
    // retained-state count as the bank.
    double checksum = 0.0;
    timer.Restart();
    for (std::size_t q = 0; q < fresh_reps; ++q) {
      auto fresh =
          MultiChainSampler::Create(model, {}, chain, args.seed + q + 1);
      fresh.status().CheckOK();
      const MultiChainEstimate estimate = fresh->EstimateFlowProbability(
          queries[q].sources[0], queries[q].sinks[0], bank_states);
      checksum += estimate.value;
    }
    const double fresh_per_query_s =
        timer.Seconds() / static_cast<double>(fresh_reps);
    if (checksum < 0.0) std::printf("impossible\n");
    const double fresh_batch_s =
        fresh_per_query_s * static_cast<double>(batch);

    const double speedup = fresh_batch_s / bank_batch_s;
    const double speedup_incl_fill = fresh_batch_s / (fill_s + bank_batch_s);
    const double bank_qps = static_cast<double>(batch) / bank_batch_s;
    std::printf(
        "%11zu | %9.3f %12.5f %12.0f | %12.5f %8.1fx | %14.4f %12.2f | "
        "%8.1fx %8.1fx\n",
        bank_states, fill_s, bank_batch_s, bank_qps, scalar_batch_s,
        reach_speedup, fresh_per_query_s, fresh_batch_s, speedup,
        speedup_incl_fill);
    csv.AppendNumericRow({static_cast<double>(bank_states), fill_s,
                          bank_batch_s, bank_qps, scalar_batch_s,
                          reach_speedup, fresh_per_query_s, fresh_batch_s,
                          speedup, speedup_incl_fill});

    JsonValue::Object record;
    record["bank_states"] = static_cast<double>(bank_states);
    record["rows"] = static_cast<double>(generation->num_rows());
    record["fill_s"] = fill_s;
    record["bank_batch_s"] = bank_batch_s;
    record["bank_queries_per_s"] = bank_qps;
    record["scalar_batch_s"] = scalar_batch_s;
    record["reach_speedup"] = reach_speedup;
    record["fresh_per_query_s"] = fresh_per_query_s;
    record["fresh_batch_s"] = fresh_batch_s;
    record["fresh_timed_queries"] = static_cast<double>(fresh_reps);
    record["speedup_batch"] = speedup;
    record["speedup_incl_fill"] = speedup_incl_fill;
    records.push_back(JsonValue(std::move(record)));
  }

  JsonValue::Object doc;
  doc["bench"] = "serve_throughput";
  doc["graph"] = JsonValue(JsonValue::Object{
      {"nodes", static_cast<double>(nodes)},
      {"edges", static_cast<double>(m)}});
  doc["batch_queries"] = static_cast<double>(batch);
  doc["chains"] = static_cast<double>(chain.num_chains);
  doc["burn_in"] = static_cast<double>(chain.mh.burn_in);
  doc["thinning"] = static_cast<double>(chain.mh.thinning);
  doc["quick"] = args.quick;
  doc["seed"] = static_cast<double>(args.seed);
  doc["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  // Which build flavor produced these numbers: CI diffs a metrics-on run
  // against an INFOFLOW_NO_METRICS run to gate observability overhead.
  doc["metrics_enabled"] = obs::MetricsEnabled();
  doc["results"] = JsonValue(std::move(records));
  const std::string json = JsonValue(std::move(doc)).Dump();
  const std::string path = args.WantCsv() ? args.csv_dir + "/BENCH_serve.json"
                                          : "BENCH_serve.json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("shape: the bank pays sampling once per generation; a "
              "batch then replays edge-major BFS only, so "
              "reuse wins by the sampling/BFS cost ratio and grows with "
              "frontier sharing.\n");
  args.MaybeWriteCsv(csv, "serve_throughput.csv");
  return 0;
}

}  // namespace
}  // namespace infoflow::bench

int main(int argc, char** argv) {
  return infoflow::bench::Run(infoflow::bench::ParseArgs(argc, argv));
}
