/// \file query_throughput.cc
/// \brief Raw reachability-replay throughput: scalar one-BFS-per-row vs
/// bit-parallel replay at 64/256/512 lanes, across graph sizes.
///
/// This is the microbench under the serving numbers: it strips away
/// sampling, conditioning and batching and times only the Eq. 5 inner loop
/// — "given R retained pseudo-states, how fast can the indicator
/// I(source ⤳ sink, x) be evaluated for all of them?". Rows are synthetic
/// Bernoulli edge draws (density 0.5), packed row-major for the scalar
/// path, transposed into the edge-major plane (bit_transpose.h) for the
/// 64-lane path, and interleaved into 4/8-word strips (strip_plane.h) for
/// the 256/512-lane paths — the layouts the serve engine replays. The
/// 64-lane path runs forward with an early exit; the strip paths run the
/// meet-in-the-middle RunUntil the engine uses for one sink, plus a
/// forward column (Run, then ReachedMask(sink)) at each strip width.
/// Every path's per-row hit counts must agree exactly; a divergence fails
/// the bench.
///
/// Emits BENCH_query.json (in --csv <dir> when given, else the working
/// directory) with one record per graph size: rows/s through each path,
/// per-width `reach_speedup_{64,256,512}` ratios over scalar (plus
/// `reach_speedup`, the speedup at the width `--lanes auto` would pick),
/// `meet_speedup_{256,512}` (forward time over RunUntil time at that
/// width), and the transpose/interleave costs of building the planes. The
/// checked-in copy at the repo root is the baseline the docs quote, and
/// CI's lane-width gate asserts 512-lane ≥ 1.5× over 64-lane on the quick
/// shape from this file's output.

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "graph/batch_reachability.h"
#include "graph/bit_transpose.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/strip_plane.h"
#include "graph/strip_reachability.h"
#include "obs/metrics.h"
#include "stats/rng.h"
#include "util/json.h"

namespace infoflow::bench {
namespace {

struct SizePoint {
  NodeId nodes;
  EdgeId edges;
};

/// Row-major packed random rows plus their edge-major transpose — the
/// layouts the serve engine's scalar and bit-parallel paths replay.
struct RowSet {
  std::size_t num_rows = 0;
  std::size_t words_per_row = 0;
  std::vector<std::uint64_t> rows;        // row-major, bit e = edge e
  std::vector<std::uint64_t> edge_major;  // per block: word per edge
  double transpose_s = 0.0;

  const std::uint64_t* Row(std::size_t r) const {
    return rows.data() + r * words_per_row;
  }
  std::size_t num_blocks() const { return (num_rows + 63) / 64; }
};

RowSet MakeRows(const DirectedGraph& graph, std::size_t num_rows,
                double density, Rng& rng) {
  RowSet set;
  set.num_rows = num_rows;
  set.words_per_row = PackedRowWords(graph.num_edges());
  set.rows.assign(num_rows * set.words_per_row, 0);
  for (std::size_t r = 0; r < num_rows; ++r) {
    std::uint64_t* row = set.rows.data() + r * set.words_per_row;
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (rng.Bernoulli(density)) row[e >> 6] |= std::uint64_t{1} << (e & 63);
    }
  }
  // Cache-blocked 64×64 transpose into the edge-major plane.
  WallTimer timer;
  set.edge_major.assign(set.num_blocks() * graph.num_edges(), 0);
  std::uint64_t tile[64];
  for (std::size_t b = 0; b < set.num_blocks(); ++b) {
    const std::size_t row0 = b * 64;
    const std::size_t rows =
        std::min<std::size_t>(64, num_rows - row0);
    std::uint64_t* plane = set.edge_major.data() + b * graph.num_edges();
    for (std::size_t w = 0; w < set.words_per_row; ++w) {
      for (std::size_t i = 0; i < rows; ++i) tile[i] = set.Row(row0 + i)[w];
      for (std::size_t i = rows; i < 64; ++i) tile[i] = 0;
      Transpose64x64(tile);
      const std::size_t e0 = w * 64;
      const std::size_t cols =
          std::min<std::size_t>(64, graph.num_edges() - e0);
      for (std::size_t j = 0; j < cols; ++j) plane[e0 + j] = tile[j];
    }
  }
  set.transpose_s = timer.Seconds();
  return set;
}

int Run(const BenchArgs& args) {
  Banner("Query throughput — scalar vs bit-parallel reachability replay");
  Rng rng(args.seed);
  const std::vector<SizePoint> sizes =
      args.quick ? std::vector<SizePoint>{{500, 1250}, {2000, 5000}}
                 : std::vector<SizePoint>{{1000, 2500},
                                          {4000, 10000},
                                          {6000, 14000},
                                          {16000, 40000}};
  const std::size_t num_rows = args.quick ? 1024 : 4096;
  // Matches the serve model's mean activation probability (probs are
  // uniform on [0.05, 0.95] there), keeping the replay supercritical.
  const double density = 0.5;
  const int reps = args.quick ? 2 : 3;

  CsvWriter csv({"nodes", "edges", "rows", "scalar_rows_per_s",
                 "batch_rows_per_s", "lanes256_rows_per_s",
                 "lanes512_rows_per_s", "reach_speedup", "transpose_ms"});
  JsonValue::Array records;
  double gate_512_over_64 = 0.0;
  std::printf("%7s %7s %6s | %14s %14s %14s %14s | %7s | %8s %8s\n",
              "nodes", "edges", "rows", "scalar rows/s", "64-lane",
              "256-lane", "512-lane", "512/64", "meet256", "meet512");
  for (const SizePoint& size : sizes) {
    const DirectedGraph graph =
        UniformRandomGraph(size.nodes, size.edges, rng);
    const RowSet set = MakeRows(graph, num_rows, density, rng);
    // A panel of (source, sink) pairs, as the serve engine sees: a single
    // fixed pair can land on a degenerate node (isolated source, adjacent
    // sink) and measure nothing but the early exit.
    constexpr std::size_t kPairs = 16;
    std::vector<NodeId> panel_src(kPairs), panel_sink(kPairs);
    for (std::size_t q = 0; q < kPairs; ++q) {
      panel_src[q] = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<std::int64_t>(size.nodes) - 1));
      do {
        panel_sink[q] = static_cast<NodeId>(
            rng.UniformInt(0, static_cast<std::int64_t>(size.nodes) - 1));
      } while (panel_sink[q] == panel_src[q]);
    }

    // Both paths count per-row hits; the totals must agree exactly.
    ReachabilityWorkspace scalar(graph);
    std::size_t scalar_hits = 0;
    std::vector<NodeId> sources(1);
    const double scalar_s = TimeBest(reps, [&] {
      scalar_hits = 0;
      for (std::size_t q = 0; q < kPairs; ++q) {
        sources[0] = panel_src[q];
        for (std::size_t r = 0; r < set.num_rows; ++r) {
          if (scalar.RunUntilPacked(graph, sources, set.Row(r),
                                    panel_sink[q])) {
            ++scalar_hits;
          }
        }
      }
    });

    BatchReachabilityWorkspace batch(graph);
    std::size_t batch_hits = 0;
    const double batch_s = TimeBest(reps, [&] {
      batch_hits = 0;
      for (std::size_t q = 0; q < kPairs; ++q) {
        sources[0] = panel_src[q];
        for (std::size_t b = 0; b < set.num_blocks(); ++b) {
          const std::size_t rows =
              std::min<std::size_t>(64, set.num_rows - b * 64);
          const std::uint64_t lane_mask =
              rows >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << rows) - 1;
          const std::uint64_t hits = batch.RunUntil(
              graph, sources, set.edge_major.data() + b * graph.num_edges(),
              panel_sink[q], lane_mask);
          batch_hits += static_cast<std::size_t>(std::popcount(hits));
        }
      }
    });
    if (scalar_hits != batch_hits) {
      std::fprintf(stderr, "hit-count divergence: scalar %zu batch %zu\n",
                   scalar_hits, batch_hits);
      return 1;
    }

    // The multi-word strip paths: interleave the edge-major plane into
    // W-word strips once (the cost SampleBank::AcquireStripPlane pays and
    // caches per generation), then replay through the runtime-width
    // workspace with RunUntil, the meet-in-the-middle search the serve
    // engine runs for one sink, and — the forward column — with Run and
    // ReachedMask(sink), as it runs for several.
    const auto block_lane_mask = [&](std::size_t b) {
      const std::size_t rows = std::min<std::size_t>(64, set.num_rows - b * 64);
      return rows >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rows) - 1;
    };
    double strip_s[2] = {0.0, 0.0};
    double forward_s[2] = {0.0, 0.0};
    double interleave_ms[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < 2; ++i) {
      const unsigned width = i == 0 ? 4 : 8;
      WallTimer interleave_timer;
      const StripPlane plane = BuildStripPlane(
          width, graph.num_edges(), set.num_blocks(),
          [&](std::size_t b) {
            return set.edge_major.data() + b * graph.num_edges();
          },
          block_lane_mask);
      interleave_ms[i] = interleave_timer.Seconds() * 1e3;
      auto workspace = StripWorkspace::Create(width, graph);
      // Times every pair over every strip; `meet` picks RunUntil or Run.
      const auto replay = [&](bool meet, double& seconds) {
        std::size_t hits = 0;
        std::uint64_t target_mask[kMaxStripWords];
        seconds = TimeBest(reps, [&] {
          hits = 0;
          for (std::size_t q = 0; q < kPairs; ++q) {
            sources[0] = panel_src[q];
            for (std::size_t s = 0; s < plane.num_strips; ++s) {
              const std::uint64_t* mask = target_mask;
              if (meet) {
                workspace->RunUntil(graph, sources, plane.StripWords(s),
                                    panel_sink[q], plane.StripLaneMask(s),
                                    target_mask);
              } else {
                workspace->Run(graph, sources, plane.StripWords(s),
                               plane.StripLaneMask(s));
                mask = workspace->ReachedMask(panel_sink[q]);
              }
              for (unsigned w = 0; w < width; ++w) {
                hits += static_cast<std::size_t>(std::popcount(mask[w]));
              }
            }
          }
        });
        return hits;
      };
      for (const bool meet : {true, false}) {
        const std::size_t hits = replay(meet, meet ? strip_s[i] : forward_s[i]);
        if (hits != scalar_hits) {
          std::fprintf(stderr,
                       "hit-count divergence: scalar %zu %u-lane %s %zu\n",
                       scalar_hits, width * 64, meet ? "meet" : "forward",
                       hits);
          return 1;
        }
      }
    }

    const double replayed = static_cast<double>(set.num_rows * kPairs);
    const double scalar_rows_per_s = replayed / scalar_s;
    const double batch_rows_per_s = replayed / batch_s;
    const double lanes256_rows_per_s = replayed / strip_s[0];
    const double lanes512_rows_per_s = replayed / strip_s[1];
    const unsigned auto_words = ResolveStripWords(
        LaneWidth::kAuto, set.num_rows, size.nodes, size.edges);
    // The headline ratio follows the width `--lanes auto` picks for this
    // row count — what the serve daemon actually runs.
    const double reach_speedup =
        auto_words == 8   ? scalar_s / strip_s[1]
        : auto_words == 4 ? scalar_s / strip_s[0]
                          : scalar_s / batch_s;
    const double ratio_512_over_64 = batch_s / strip_s[1];
    // The CI gate reads the smallest (first) shape: that's the one whose
    // working set is L2-resident at every width, where wide strips must
    // win. Bigger shapes print their honest (possibly < 1×) ratios above —
    // there `--lanes auto` steps back down, so they don't gate.
    if (gate_512_over_64 == 0.0) gate_512_over_64 = ratio_512_over_64;
    const double transpose_ms = set.transpose_s * 1e3;
    std::printf(
        "%7u %7u %6zu | %14.0f %14.0f %14.0f %14.0f | %6.2fx | %7.2fx "
        "%7.2fx\n",
        size.nodes, size.edges, set.num_rows, scalar_rows_per_s,
        batch_rows_per_s, lanes256_rows_per_s, lanes512_rows_per_s,
        ratio_512_over_64, forward_s[0] / strip_s[0],
        forward_s[1] / strip_s[1]);
    csv.AppendNumericRow({static_cast<double>(size.nodes),
                          static_cast<double>(size.edges),
                          static_cast<double>(set.num_rows),
                          scalar_rows_per_s, batch_rows_per_s,
                          lanes256_rows_per_s, lanes512_rows_per_s,
                          reach_speedup, transpose_ms});

    JsonValue::Object record;
    record["nodes"] = static_cast<double>(size.nodes);
    record["edges"] = static_cast<double>(size.edges);
    record["rows"] = static_cast<double>(set.num_rows);
    record["hit_fraction"] =
        static_cast<double>(scalar_hits) / replayed;
    record["scalar_rows_per_s"] = scalar_rows_per_s;
    record["batch_rows_per_s"] = batch_rows_per_s;
    record["lanes256_rows_per_s"] = lanes256_rows_per_s;
    record["lanes512_rows_per_s"] = lanes512_rows_per_s;
    record["reach_speedup"] = reach_speedup;
    record["reach_speedup_64"] = scalar_s / batch_s;
    record["reach_speedup_256"] = scalar_s / strip_s[0];
    record["reach_speedup_512"] = scalar_s / strip_s[1];
    record["forward256_rows_per_s"] = replayed / forward_s[0];
    record["forward512_rows_per_s"] = replayed / forward_s[1];
    record["meet_speedup_256"] = forward_s[0] / strip_s[0];
    record["meet_speedup_512"] = forward_s[1] / strip_s[1];
    record["strip_width"] = static_cast<double>(64 * auto_words);
    record["transpose_ms"] = transpose_ms;
    record["interleave256_ms"] = interleave_ms[0];
    record["interleave512_ms"] = interleave_ms[1];
    records.push_back(JsonValue(std::move(record)));
  }

  JsonValue::Object doc;
  doc["bench"] = "query_throughput";
  doc["rows"] = static_cast<double>(num_rows);
  doc["edge_density"] = density;
  doc["quick"] = args.quick;
  doc["seed"] = static_cast<double>(args.seed);
  doc["hardware_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  doc["metrics_enabled"] = obs::MetricsEnabled();
  doc["results"] = JsonValue(std::move(records));
  const std::string json = JsonValue(std::move(doc)).Dump();
  const std::string path = args.WantCsv() ? args.csv_dir + "/BENCH_query.json"
                                          : "BENCH_query.json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("lane-width verdict: 512-lane strips %.2fx over 64-lane on "
              "the smallest (cache-resident) shape (CI gate: >= 1.5x)\n",
              gate_512_over_64);
  std::printf("shape: one bit-parallel pass answers 64 rows per plane word, "
              "so widening to 8-word strips amortizes the frontier "
              "bookkeeping over 512 rows; early exit keeps every path "
              "sublinear when the sink is close to the source.\n");
  args.MaybeWriteCsv(csv, "query_throughput.csv");
  return 0;
}

}  // namespace
}  // namespace infoflow::bench

int main(int argc, char** argv) {
  return infoflow::bench::Run(infoflow::bench::ParseArgs(argc, argv));
}
