/// \file stream_ingest.cc
/// \brief Streaming-ingest benchmark: wire-line parse rate, OnlineTrainer
/// absorb rate, end-to-end StreamIngestor throughput, and epoch
/// publish/bank-rebuild latency, on the fig6-style random graph.
///
/// The streaming subsystem's budget question is "how many evidence records
/// per second can a live daemon absorb while serving queries?". The
/// stages are measured separately so a regression is attributable: parsing
/// (ParseEvidenceLine), counting (AbsorbAttributed / AbsorbTrace), the
/// synchronous serve-verb path (IngestLine = parse + absorb + epoch
/// cadence), the epoch fit+swap (PublishNow), and the drift-triggered
/// SampleBank::Rebuild a published epoch can fan out into.
///
/// Emits BENCH_stream.json (in --csv <dir> when given, else the working
/// directory); `ingest_records_per_s` is the headline number.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "serve/sample_bank.h"
#include "stream/evidence_stream.h"
#include "stream/ingestor.h"
#include "stream/online_trainer.h"
#include "util/json.h"

namespace infoflow::bench {
namespace {

using stream::EvidenceRecord;
using stream::IngestorOptions;
using stream::OnlineTrainer;
using stream::OnlineTrainerOptions;
using stream::StreamFormat;
using stream::StreamIngestor;

/// One attributed object rendered in the native wire grammar
/// ("sources|nodes|edges").
std::string AttributedLine(const DirectedGraph& graph,
                           const AttributedObject& object) {
  std::string out;
  for (std::size_t i = 0; i < object.sources.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(object.sources[i]);
  }
  out += '|';
  for (std::size_t i = 0; i < object.active_nodes.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(object.active_nodes[i]);
  }
  out += '|';
  for (std::size_t i = 0; i < object.active_edges.size(); ++i) {
    if (i) out += ' ';
    const Edge& edge = graph.edge(object.active_edges[i]);
    out += std::to_string(edge.src);
    out += '>';
    out += std::to_string(edge.dst);
  }
  return out;
}

int Run(const BenchArgs& args) {
  Banner("Stream ingest — parse / absorb / end-to-end / epoch swap");
  Rng rng(args.seed);
  const NodeId nodes = args.quick ? 1000 : 6000;
  const EdgeId edges = args.quick ? 2500 : 14000;
  const std::size_t records = args.quick ? 2000 : 10000;
  auto graph = std::make_shared<const DirectedGraph>(
      UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(graph->num_edges());
  for (double& p : probs) p = rng.Uniform(0.05, 0.3);
  const PointIcm truth(graph, probs);

  // Simulated cascades, each rendered once as a wire line.
  std::vector<AttributedObject> objects(records);
  std::vector<std::string> lines(records);
  double total_active_nodes = 0.0;
  for (std::size_t r = 0; r < records; ++r) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(nodes));
    const ActiveState s = truth.SampleCascade({src}, rng);
    objects[r].sources = s.sources;
    objects[r].active_nodes = s.active_nodes;
    for (EdgeId e = 0; e < s.edge_active.size(); ++e) {
      if (s.edge_active[e]) objects[r].active_edges.push_back(e);
    }
    lines[r] = AttributedLine(*graph, objects[r]);
    total_active_nodes += static_cast<double>(s.active_nodes.size());
  }

  WallTimer timer;

  // Stage 1: parse only.
  std::size_t parsed = 0;
  timer.Restart();
  for (const std::string& line : lines) {
    auto record = stream::ParseEvidenceLine(line, *graph, StreamFormat::kAuto);
    if (record.ok()) ++parsed;
  }
  const double parse_s = timer.Seconds();
  const double parse_rate = static_cast<double>(parsed) / parse_s;

  // Stage 2: absorb only (pre-parsed records, no forgetting).
  OnlineTrainer plain(graph, OnlineTrainerOptions{});
  timer.Restart();
  for (const AttributedObject& object : objects) {
    plain.AbsorbAttributed(object).CheckOK();
  }
  const double absorb_s = timer.Seconds();
  const double absorb_rate = static_cast<double>(records) / absorb_s;

  // Stage 2b: absorb with the forgetting machinery engaged (decay scaling
  // plus window eviction) — the cost of non-stationarity support.
  OnlineTrainerOptions forgetting;
  forgetting.decay = 0.999;
  forgetting.window = records / 2;
  OnlineTrainer aged(graph, forgetting);
  timer.Restart();
  for (const AttributedObject& object : objects) {
    aged.AbsorbAttributed(object).CheckOK();
  }
  const double aged_rate = static_cast<double>(records) / timer.Seconds();

  // Stage 3: the serve-verb path end to end (parse + absorb + cadence).
  IngestorOptions ingest_options;
  ingest_options.epoch_every = 256;
  ingest_options.seed = args.seed;
  StreamIngestor ingestor(graph, PointIcm::Constant(graph, 0.5),
                          ingest_options);
  timer.Restart();
  for (const std::string& line : lines) {
    ingestor.IngestLine(line).status().CheckOK();
  }
  const double ingest_s = timer.Seconds();
  const double ingest_rate = static_cast<double>(records) / ingest_s;
  const double epochs = static_cast<double>(ingestor.CurrentEpoch()->id);

  // Stage 4: epoch publish latency (fit + pointer swap) on the full state.
  const int publish_reps = args.quick ? 10 : 25;
  const double publish_ms =
      1000.0 * TimeReps(publish_reps, [&ingestor] {
        ingestor.PublishNow().status().CheckOK();
      });

  // Stage 5: the rebuild a drift-crossing epoch triggers — one generation
  // drawn from the new model (small bank).
  serve::BankOptions bank_options;
  bank_options.num_states = args.quick ? 128 : 512;
  bank_options.chain.num_chains = 4;
  auto bank = serve::SampleBank::Create(truth, bank_options, args.seed);
  bank.status().CheckOK();
  timer.Restart();
  bank->Rebuild(ingestor.CurrentEpoch()->model, ingestor.CurrentEpoch()->id)
      .CheckOK();
  const double rebuild_s = timer.Seconds();

  std::printf("records: %zu  (mean active nodes/record %.1f)\n", records,
              total_active_nodes / static_cast<double>(records));
  std::printf("%-26s %12.0f records/s\n", "parse only", parse_rate);
  std::printf("%-26s %12.0f records/s\n", "absorb only", absorb_rate);
  std::printf("%-26s %12.0f records/s\n", "absorb w/ decay+window",
              aged_rate);
  std::printf("%-26s %12.0f records/s  (%.0f epochs published)\n",
              "IngestLine end-to-end", ingest_rate, epochs);
  std::printf("%-26s %12.3f ms/publish\n", "epoch fit+swap", publish_ms);
  std::printf("%-26s %12.3f s\n", "bank rebuild", rebuild_s);

  CsvWriter csv({"parse_records_per_s", "absorb_records_per_s",
                 "absorb_forgetting_records_per_s", "ingest_records_per_s",
                 "epoch_publish_ms", "bank_rebuild_s"});
  csv.AppendNumericRow({parse_rate, absorb_rate, aged_rate, ingest_rate,
                        publish_ms, rebuild_s});

  JsonValue::Object doc;
  doc["bench"] = "stream_ingest";
  doc["graph"] = JsonValue(JsonValue::Object{
      {"nodes", static_cast<double>(nodes)},
      {"edges", static_cast<double>(graph->num_edges())}});
  doc["records"] = static_cast<double>(records);
  doc["parse_records_per_s"] = parse_rate;
  doc["absorb_records_per_s"] = absorb_rate;
  doc["absorb_forgetting_records_per_s"] = aged_rate;
  doc["ingest_records_per_s"] = ingest_rate;
  doc["epochs_published"] = epochs;
  doc["epoch_publish_ms"] = publish_ms;
  doc["bank_rebuild_s"] = rebuild_s;
  doc["bank_states"] = static_cast<double>(bank_options.num_states);
  doc["quick"] = args.quick;
  doc["seed"] = static_cast<double>(args.seed);
  const std::string json = JsonValue(std::move(doc)).Dump();
  const std::string path = args.WantCsv()
                               ? args.csv_dir + "/BENCH_stream.json"
                               : "BENCH_stream.json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("shape: ingest is parse-dominated; the epoch swap is a fit "
              "plus a pointer exchange, and the (async) bank rebuild is "
              "one full fill — which is why it runs off the serve "
              "thread.\n");
  args.MaybeWriteCsv(csv, "stream_ingest.csv");
  return 0;
}

}  // namespace
}  // namespace infoflow::bench

int main(int argc, char** argv) {
  return infoflow::bench::Run(infoflow::bench::ParseArgs(argc, argv));
}
