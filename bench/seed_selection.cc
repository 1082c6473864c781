/// \file seed_selection.cc
/// \brief Seed-selection throughput: Monte-Carlo CELF (fresh cascade
/// simulations per gain, core/influence_max.h) vs the bank-sketch backend
/// (RR sketches inverted from retained pseudo-states, src/seedmax/).
///
/// Both solve the same §I marketing problem — pick k seeds maximizing
/// expected spread under the learned ICM — with the same lazy-greedy
/// search; only the spread estimator differs. The bank path's cost is one
/// bit-parallel sketch build per generation plus popcounts per gain, so it
/// amortizes across requests; the Monte-Carlo path pays thousands of fresh
/// cascades per gain evaluation. The headline ratio `speedup` (Monte-Carlo
/// seconds / bank seconds, sketch build *included*) is gated ≥ 10× in CI
/// on the quick shape.
///
/// Emits BENCH_seedsel.json (in --csv <dir> when given, else the working
/// directory): one record per seed-set size with both walls, the seed
/// sets, and both spread estimates, plus the host's hardware_threads and
/// whether the binary was built with metrics on (both shift absolute
/// numbers; the committed baseline records them for comparability).

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/influence_max.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "seedmax/rr_index.h"
#include "seedmax/seed_selector.h"
#include "serve/sample_bank.h"
#include "stats/rng.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace infoflow::bench {
namespace {

int Run(const BenchArgs& args) {
  Banner("Seed selection — Monte-Carlo CELF vs bank-sketch max-coverage");
  Rng rng(args.seed);
  const NodeId nodes = args.quick ? 200 : 600;
  const EdgeId edges = args.quick ? 600 : 2400;
  const std::size_t bank_states = args.quick ? 1024 : 4096;
  // The Monte-Carlo reference runs at the subsystem's default estimator
  // budget (InfluenceMaxOptions::simulations, also the CLI default) in
  // both modes — thinning it would flatter neither side, just change the
  // question.
  const std::size_t simulations = 500;
  const std::vector<std::size_t> seed_counts =
      args.quick ? std::vector<std::size_t>{5, 10}
                 : std::vector<std::size_t>{5, 10, 20};
  const int reps = args.quick ? 2 : 3;

  auto graph = std::make_shared<const DirectedGraph>(
      UniformRandomGraph(nodes, edges, rng));
  // Supercritical probabilities (mean branching factor ≈ 1): cascades
  // reach a sizable fraction of the graph, which is the regime where seed
  // selection matters — and where Monte-Carlo spread estimation pays
  // O(spread) per cascade while the sketch path still pays one popcount
  // per posting.
  std::vector<double> probs(graph->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.6);
  const PointIcm model(graph, probs);

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
  std::printf("bank: %zu rows in %.1f ms; graph: %u nodes / %u edges\n",
              generation->num_rows(), warmup.Millis(), nodes, edges);

  const seedmax::ReversedGraphView view =
      seedmax::ReversedGraphView::Build(bank->graph_ptr());

  // The production build is parallel across 64-row blocks (RrIndex always
  // passes its pool); the serial wall is timed once for the record so the
  // committed baseline shows the parallelization win.
  ThreadPool sketch_pool;
  double build_serial_s = 0.0;
  {
    std::shared_ptr<const seedmax::RrSketchSet> serial_set;
    build_serial_s = TimeBest(reps, [&] {
      auto built = seedmax::RrSketchSet::Build(view, *generation);
      if (built.ok()) {
        serial_set = std::make_shared<const seedmax::RrSketchSet>(
            std::move(*built));
      }
    });
    if (serial_set == nullptr) {
      std::fprintf(stderr, "serial sketch build failed\n");
      return 1;
    }
  }
  std::printf("sketch build (serial reference): %.3f s\n", build_serial_s);

  CsvWriter csv({"k", "mc_s", "sketch_build_s", "sketch_select_s",
                 "speedup", "mc_spread", "sketch_spread"});
  JsonValue::Array records;
  std::printf("%4s | %10s | %10s %10s | %8s | %10s %10s\n", "k", "mc s",
              "build s", "select s", "speedup", "mc spread", "rr spread");
  for (const std::size_t k : seed_counts) {
    InfluenceMaxOptions mc_options;
    mc_options.num_seeds = k;
    mc_options.simulations = simulations;
    InfluenceMaxResult mc;
    const double mc_s = TimeBest(reps, [&] {
      Rng mc_rng(args.seed + k);
      auto result = MaximizeInfluence(model, mc_options, mc_rng);
      if (result.ok()) mc = std::move(*result);
    });
    if (mc.seeds.size() != k) {
      std::fprintf(stderr, "monte-carlo CELF failed at k=%zu\n", k);
      return 1;
    }

    // The sketch build is timed inside the loop (and counted against the
    // bank path) even though a serving daemon amortizes it across
    // requests: the gated ratio is the conservative cold-cache one.
    std::shared_ptr<const seedmax::RrSketchSet> sketches;
    seedmax::RrBuildOptions build_options;
    build_options.pool = &sketch_pool;
    const double build_s = TimeBest(reps, [&] {
      auto built = seedmax::RrSketchSet::Build(view, *generation,
                                               build_options);
      if (built.ok()) {
        sketches = std::make_shared<const seedmax::RrSketchSet>(
            std::move(*built));
      }
    });
    if (sketches == nullptr) {
      std::fprintf(stderr, "sketch build failed at k=%zu\n", k);
      return 1;
    }
    seedmax::SeedMaxOptions options;
    options.num_seeds = k;
    seedmax::SeedMaxResult banked;
    const double select_s = TimeBest(reps, [&] {
      auto result = seedmax::SelectSeeds(*sketches, options);
      if (result.ok()) banked = std::move(*result);
    });
    if (banked.picks.size() != k) {
      std::fprintf(stderr, "sketch selection failed at k=%zu\n", k);
      return 1;
    }

    const double mc_spread = mc.expected_spread.back();
    const double speedup = mc_s / (build_s + select_s);
    std::printf("%4zu | %10.3f | %10.3f %10.3f | %7.1fx | %10.2f %10.2f\n",
                k, mc_s, build_s, select_s, speedup, mc_spread,
                banked.spread);
    csv.AppendNumericRow({static_cast<double>(k), mc_s, build_s, select_s,
                          speedup, mc_spread, banked.spread});

    JsonValue::Object record;
    record["k"] = static_cast<double>(k);
    record["mc_s"] = mc_s;
    record["mc_evaluations"] = static_cast<double>(mc.evaluations);
    record["sketch_build_s"] = build_s;
    record["sketch_select_s"] = select_s;
    record["sketch_evaluations"] = static_cast<double>(banked.evaluations);
    record["prune_hits"] = static_cast<double>(banked.prune_hits);
    record["speedup"] = speedup;
    record["mc_spread"] = mc_spread;
    record["sketch_spread"] = banked.spread;
    record["sketch_mcse"] = banked.mcse;
    JsonValue::Array mc_seeds;
    for (NodeId s : mc.seeds) mc_seeds.push_back(static_cast<double>(s));
    record["mc_seeds"] = std::move(mc_seeds);
    JsonValue::Array rr_seeds;
    for (NodeId s : banked.seeds()) {
      rr_seeds.push_back(static_cast<double>(s));
    }
    record["sketch_seeds"] = std::move(rr_seeds);
    records.push_back(JsonValue(std::move(record)));
  }

  JsonValue::Object doc;
  doc["bench"] = "seed_selection";
  doc["nodes"] = static_cast<double>(nodes);
  doc["edges"] = static_cast<double>(edges);
  doc["bank_rows"] = static_cast<double>(generation->num_rows());
  doc["sketch_build_serial_s"] = build_serial_s;
  doc["simulations"] = static_cast<double>(simulations);
  doc["quick"] = args.quick;
  doc["seed"] = static_cast<double>(args.seed);
  doc["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  doc["metrics_enabled"] = obs::MetricsEnabled();
  doc["results"] = JsonValue(std::move(records));
  const std::string json = JsonValue(std::move(doc)).Dump();
  const std::string path = args.WantCsv()
                               ? args.csv_dir + "/BENCH_seedsel.json"
                               : "BENCH_seedsel.json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("shape: Monte-Carlo pays simulations x candidates cascades "
              "per round; the bank path pays one bit-parallel sketch build "
              "per generation and popcounts per gain, so the gap widens "
              "with k and with request rate (a daemon builds once).\n");
  args.MaybeWriteCsv(csv, "seed_selection.csv");
  return 0;
}

}  // namespace
}  // namespace infoflow::bench

int main(int argc, char** argv) {
  return infoflow::bench::Run(infoflow::bench::ParseArgs(argc, argv));
}
