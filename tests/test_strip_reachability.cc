#include "graph/strip_reachability.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/batch_reachability.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/reachability.h"
#include "graph/strip_plane.h"
#include "stats/rng.h"

namespace infoflow {
namespace {

// Same fixture as the 64-lane and scalar suites: 0 -> 1 -> 2 -> 3 with a
// 0 -> 3 shortcut and a cycle 3 -> 1.
DirectedGraph Chain() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  b.AddEdge(0, 3).CheckOK();
  b.AddEdge(3, 1).CheckOK();
  return std::move(b).Build();
}

// W independent 64-sample blocks plus their strip-major interleave, the
// per-word lane masks, and per-sample scalar activity vectors — everything
// the differential assertions need in one place. `rows` may leave the tail
// block ragged (rows % 64 != 0) or drop trailing blocks entirely
// (rows % (64*W) != 0), mirroring a bank whose row count doesn't fill the
// strip.
struct SampledStrip {
  std::vector<std::vector<std::uint64_t>> block_words;  // [w][e]
  std::vector<std::uint64_t> strip_words;               // [e*W + w]
  std::vector<std::uint64_t> lane_mask;                 // [w]
  // active[w][s][e] = edge e's activity in sample s of block w.
  std::vector<std::vector<std::vector<std::uint8_t>>> active;
};

SampledStrip RandomStrip(const DirectedGraph& g, Rng& rng, double density,
                         unsigned width, std::size_t rows) {
  SampledStrip strip;
  strip.block_words.assign(width,
                           std::vector<std::uint64_t>(g.num_edges(), 0));
  strip.strip_words.assign(std::size_t{g.num_edges()} * width, 0);
  strip.lane_mask.assign(width, 0);
  strip.active.assign(
      width, std::vector<std::vector<std::uint8_t>>(
                 64, std::vector<std::uint8_t>(g.num_edges(), 0)));
  for (unsigned w = 0; w < width; ++w) {
    const std::size_t first_row = std::size_t{w} * 64;
    const std::size_t block_rows =
        rows > first_row ? std::min<std::size_t>(64, rows - first_row) : 0;
    strip.lane_mask[w] = block_rows >= 64 ? ~std::uint64_t{0}
                         : block_rows == 0
                             ? 0
                             : (std::uint64_t{1} << block_rows) - 1;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      for (std::size_t s = 0; s < 64; ++s) {
        if (rng.Bernoulli(density)) {
          strip.block_words[w][e] |= std::uint64_t{1} << s;
          strip.active[w][s][e] = 1;
        }
      }
      strip.strip_words[std::size_t{e} * width + w] = strip.block_words[w][e];
    }
  }
  return strip;
}

template <unsigned W>
void ExpectMatchesReferences(const DirectedGraph& g, const SampledStrip& strip,
                             const std::vector<NodeId>& sources,
                             const StripReachabilityWorkspace<W>& wide,
                             const char* label) {
  BatchReachabilityWorkspace batch(g);
  ReachabilityWorkspace scalar(g);
  for (unsigned w = 0; w < W; ++w) {
    batch.Run(g, sources, strip.block_words[w].data(), strip.lane_mask[w]);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(wide.ReachedMask(v)[w], batch.ReachedMask(v))
          << label << " word " << w << " node " << v;
    }
    // Spot-check a few lanes against the scalar reference too, so the wide
    // path is pinned to both references, not just transitively.
    for (std::size_t s = 0; s < 64; s += 13) {
      if (((strip.lane_mask[w] >> s) & 1) == 0) continue;
      scalar.Run(g, sources, strip.active[w][s]);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ((wide.ReachedMask(v)[w] >> s) & 1,
                  scalar.IsReached(v) ? 1u : 0u)
            << label << " word " << w << " sample " << s << " node " << v;
      }
    }
  }
}

TEST(StripPlane, InterleavesBlockPlanesWithRaggedTail) {
  Rng rng(41);
  const DirectedGraph g = UniformRandomGraph(12, 30, rng);
  // 5 blocks over width-4 strips → 2 strips, second ragged (1 live block).
  std::vector<std::vector<std::uint64_t>> blocks(5);
  for (auto& b : blocks) {
    b.resize(g.num_edges());
    for (auto& word : b) word = rng.NextU64();
  }
  const StripPlane plane = BuildStripPlane(
      4, g.num_edges(), blocks.size(),
      [&](std::size_t b) { return blocks[b].data(); },
      [&](std::size_t b) { return b == 4 ? 0xFFu : ~std::uint64_t{0}; });
  ASSERT_EQ(plane.num_strips, 2u);
  EXPECT_EQ(plane.StripBlocks(0), 4u);
  EXPECT_EQ(plane.StripBlocks(1), 1u);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::size_t s = b / 4;
    const unsigned w = static_cast<unsigned>(b % 4);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(plane.StripWords(s)[std::size_t{e} * 4 + w], blocks[b][e])
          << "block " << b << " edge " << e;
    }
  }
  EXPECT_EQ(plane.StripLaneMask(0)[3], ~std::uint64_t{0});
  EXPECT_EQ(plane.StripLaneMask(1)[0], 0xFFu);
  // Words and lane masks past the last block stay zero.
  for (unsigned w = 1; w < 4; ++w) {
    EXPECT_EQ(plane.StripLaneMask(1)[w], 0u);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(plane.StripWords(1)[std::size_t{e} * 4 + w], 0u);
    }
  }
}

TEST(StripReachability, WidthOneMatchesTheBatchReferenceBitForBit) {
  Rng rng(43);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.25, 1, 64);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30)};
    StripReachabilityWorkspace<1> wide(g);
    wide.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    BatchReachabilityWorkspace batch(g);
    batch.Run(g, sources, strip.block_words[0].data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(wide.ReachedMask(v)[0], batch.ReachedMask(v))
          << "trial " << trial << " node " << v;
    }
    ASSERT_EQ(wide.TouchedNodes(), batch.TouchedNodes()) << "trial " << trial;
  }
}

TEST(StripReachability, WideStripsMatchSixtyFourLaneAndScalarReferences) {
  Rng rng(47);
  for (int trial = 0; trial < 4; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30),
                                      static_cast<NodeId>((trial * 7) % 30)};
    {
      const SampledStrip strip = RandomStrip(g, rng, 0.25, 4, 256);
      StripReachabilityWorkspace<4> wide(g);
      wide.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
      ExpectMatchesReferences(g, strip, sources, wide, "W=4");
    }
    {
      const SampledStrip strip = RandomStrip(g, rng, 0.25, 8, 512);
      StripReachabilityWorkspace<8> wide(g);
      wide.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
      ExpectMatchesReferences(g, strip, sources, wide, "W=8");
    }
  }
}

TEST(StripReachability, RaggedTailRowsStayConfinedToTheirLaneMask) {
  Rng rng(53);
  // rows % 512 != 0: the last block is ragged and the strip's final words
  // are partially or fully dead.
  for (const std::size_t rows : {257u, 300u, 449u, 511u}) {
    const DirectedGraph g = UniformRandomGraph(25, 75, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.3, 8, rows);
    StripReachabilityWorkspace<8> wide(g);
    wide.Run(g, {0}, strip.strip_words.data(), strip.lane_mask.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (unsigned w = 0; w < 8; ++w) {
        ASSERT_EQ(wide.ReachedMask(v)[w] & ~strip.lane_mask[w], 0u)
            << "rows " << rows << " node " << v << " word " << w;
      }
    }
    ExpectMatchesReferences(g, strip, {0}, wide, "ragged");
  }
}

TEST(StripReachability, ConditionalSurvivorMasksMatchAcrossWidths) {
  Rng rng(59);
  // Arbitrary per-word survivor masks — the Eq. 7–8 conditional path seeds
  // only the lanes whose rows satisfied the constraints.
  for (int trial = 0; trial < 4; ++trial) {
    const DirectedGraph g = UniformRandomGraph(25, 75, rng);
    SampledStrip strip = RandomStrip(g, rng, 0.3, 4, 256);
    for (unsigned w = 0; w < 4; ++w) strip.lane_mask[w] = rng.NextU64();
    StripReachabilityWorkspace<4> wide(g);
    wide.Run(g, {1}, strip.strip_words.data(), strip.lane_mask.data());
    ExpectMatchesReferences(g, strip, {1}, wide, "survivors");
  }
}

TEST(StripReachability, PullAndPushSchedulesAgreeBitForBit) {
  Rng rng(61);
  for (int trial = 0; trial < 6; ++trial) {
    // Dense enough that mid-BFS frontiers cover most of the graph, so the
    // default threshold actually flips some rounds bottom-up.
    const DirectedGraph g = UniformRandomGraph(40, 400, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.4, 8, 512);
    StripReachabilityWorkspace<8> push(g);
    StripReachabilityWorkspace<8> pull(g);
    StripReachabilityWorkspace<8> mixed(g);
    push.set_pull_threshold(2.0);  // never pull
    pull.set_pull_threshold(0.0);  // always pull
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 40)};
    push.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    pull.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    mixed.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (unsigned w = 0; w < 8; ++w) {
        ASSERT_EQ(pull.ReachedMask(v)[w], push.ReachedMask(v)[w])
            << "trial " << trial << " node " << v << " word " << w;
        ASSERT_EQ(mixed.ReachedMask(v)[w], push.ReachedMask(v)[w])
            << "trial " << trial << " node " << v << " word " << w;
      }
    }
    ASSERT_EQ(pull.TouchedNodes(), push.TouchedNodes());
    ASSERT_EQ(mixed.TouchedNodes(), push.TouchedNodes());
  }
}

TEST(StripReachability, IncrementalSeedPropagateMatchesOneShot) {
  Rng rng(67);
  for (int trial = 0; trial < 6; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.25, 4, 256);
    const NodeId a = static_cast<NodeId>(trial % 30);
    const NodeId b = static_cast<NodeId>((trial * 11 + 3) % 30);
    StripReachabilityWorkspace<4> oneshot(g);
    oneshot.Run(g, {a, b}, strip.strip_words.data(), strip.lane_mask.data());
    // Stage the seeds across several Propagate rounds, upgrading lanes a
    // node already partially holds.
    StripReachabilityWorkspace<4> inc(g);
    inc.Begin(g);
    std::array<std::uint64_t, 4> partial = {strip.lane_mask[0], 0, 0,
                                            strip.lane_mask[3]};
    inc.Seed(a, partial.data());
    inc.Propagate(strip.strip_words.data());
    inc.Seed(b, strip.lane_mask.data());
    inc.Propagate(strip.strip_words.data());
    inc.Seed(a, strip.lane_mask.data());  // upgrade the first seed's lanes
    inc.Propagate(strip.strip_words.data());
    // Re-seeding lanes a node already holds is a no-op.
    std::array<std::uint64_t, 4> held = {0xFF, 0, 0, 0};
    held[0] &= strip.lane_mask[0];
    inc.Seed(b, held.data());
    inc.Propagate(strip.strip_words.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (unsigned w = 0; w < 4; ++w) {
        ASSERT_EQ(inc.ReachedMask(v)[w], oneshot.ReachedMask(v)[w])
            << "trial " << trial << " node " << v << " word " << w;
      }
    }
    ASSERT_EQ(inc.TouchedNodes(), oneshot.TouchedNodes()) << "trial " << trial;
  }
}

TEST(StripReachability, RunUntilMatchesFullRunOnTarget) {
  Rng rng(71);
  for (int trial = 0; trial < 6; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 80, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.2, 8, 512);
    const NodeId target = static_cast<NodeId>((trial * 7 + 1) % 30);
    StripReachabilityWorkspace<8> full(g);
    StripReachabilityWorkspace<8> early(g);
    full.Run(g, {0}, strip.strip_words.data(), strip.lane_mask.data());
    std::array<std::uint64_t, 8> hits = {};
    early.RunUntil(g, {0}, strip.strip_words.data(), target,
                   strip.lane_mask.data(), hits.data());
    for (unsigned w = 0; w < 8; ++w) {
      EXPECT_EQ(hits[w], full.ReachedMask(target)[w])
          << "trial " << trial << " word " << w;
    }
  }
}

TEST(StripReachability, RunUntilSaturatesImmediatelyWhenTargetIsSource) {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> none(std::size_t{g.num_edges()} * 4, 0);
  StripReachabilityWorkspace<4> ws(g);
  std::array<std::uint64_t, 4> lanes = {0x5555555555555555ULL, 0,
                                        ~std::uint64_t{0}, 0x1};
  std::array<std::uint64_t, 4> hits = {};
  ws.RunUntil(g, {2}, none.data(), 2, lanes.data(), hits.data());
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(hits[w], lanes[w]);
  // The skipped run must not leak worklist state into the next one.
  std::vector<std::uint64_t> all(std::size_t{g.num_edges()} * 4,
                                 ~std::uint64_t{0});
  std::array<std::uint64_t, 4> full_mask;
  full_mask.fill(~std::uint64_t{0});
  ws.RunUntil(g, {0}, all.data(), 3, full_mask.data(), hits.data());
  for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(hits[w], ~std::uint64_t{0});
}

// One meet-search case: RunUntil's target mask must equal a forward Run's
// ReachedMask(target), word for word. `meet` is then reused for a forward
// Run of the same case, which must match the reference everywhere, so the
// next case's RunUntil starts from a workspace a Run just used.
::testing::AssertionResult MeetMatchesForward(
    StripWorkspace& meet, StripWorkspace& forward, const DirectedGraph& g,
    const std::uint64_t* strip_words, const std::vector<NodeId>& sources,
    NodeId target, const std::uint64_t* lane_mask) {
  const unsigned width = forward.words();
  forward.Run(g, sources, strip_words, lane_mask);
  std::array<std::uint64_t, kMaxStripWords> hits;
  hits.fill(0xDEAD);
  meet.RunUntil(g, sources, strip_words, target, lane_mask, hits.data());
  for (unsigned w = 0; w < width; ++w) {
    if (hits[w] != forward.ReachedMask(target)[w]) {
      return ::testing::AssertionFailure()
             << "RunUntil word " << w << ": " << hits[w] << " vs forward "
             << forward.ReachedMask(target)[w];
    }
  }
  meet.Run(g, sources, strip_words, lane_mask);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (unsigned w = 0; w < width; ++w) {
      if (meet.ReachedMask(v)[w] != forward.ReachedMask(v)[w]) {
        return ::testing::AssertionFailure()
               << "Run after RunUntil, node " << v << " word " << w;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

template <unsigned W>
std::unique_ptr<StripWorkspace> GenericWorkspace(const DirectedGraph& g) {
  return std::make_unique<StripReachabilityWorkspace<W>>(g);
}

TEST(StripReachability, RunUntilMeetsForwardRunOnEveryShapeAndWidth) {
  Rng rng(101);
  struct Shape {
    const char* name;
    DirectedGraph graph;
    double density;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"uniform sparse", UniformRandomGraph(60, 130, rng), 0.45});
  shapes.push_back(
      {"reciprocal PA", PreferentialAttachmentGraph(80, 3, 0.5, rng), 0.3});
  // Node 0 (the root) has no in-edges; leaves have no out-edges.
  shapes.push_back({"tree", RandomTreeGraph(80, 3, rng), 0.75});
  // Mean out-degree 10 at p = 0.1: near-critical, wide frontiers.
  shapes.push_back({"dense critical", UniformRandomGraph(40, 400, rng), 0.1});
  for (const Shape& shape : shapes) {
    const DirectedGraph& g = shape.graph;
    const NodeId n = g.num_nodes();
    NodeId no_in = kInvalidNode;
    NodeId no_out = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (no_in == kInvalidNode && g.InEdges(v).empty()) no_in = v;
      if (no_out == kInvalidNode && g.OutEdges(v).empty()) no_out = v;
    }
    const auto node = [&] {
      return static_cast<NodeId>(rng.UniformInt(0, n - 1));
    };
    for (const unsigned width : {1u, 4u, 8u}) {
      const SampledStrip strip = RandomStrip(g, rng, shape.density, width,
                                             std::size_t{width} * 64);
      // Full lanes; a ragged first word with dead words after it; random
      // survivors with every other word all-zero.
      std::vector<std::vector<std::uint64_t>> masks(3);
      masks[0] = strip.lane_mask;
      masks[1].assign(width, 0);
      masks[1][0] = (std::uint64_t{1} << 37) - 1;
      masks[2].assign(width, 0);
      for (unsigned w = 0; w < width; w += 2) masks[2][w] = rng.NextU64();
      struct Case {
        std::vector<NodeId> sources;
        NodeId target;
      };
      std::vector<Case> cases;
      for (int i = 0; i < 12; ++i) cases.push_back({{node()}, node()});
      cases.push_back({{node(), node(), node()}, node()});
      const NodeId a = node();
      cases.push_back({{a, node()}, a});  // target among the sources
      if (no_in != kInvalidNode) {
        cases.push_back({{node()}, no_in});
        cases.push_back({{no_in}, no_in});
      }
      if (no_out != kInvalidNode) {
        cases.push_back({{no_out}, node()});
        cases.push_back({{no_out, node()}, node()});
      }
      const auto generic = width == 1   ? GenericWorkspace<1>(g)
                           : width == 4 ? GenericWorkspace<4>(g)
                                        : GenericWorkspace<8>(g);
      const auto picked = StripWorkspace::Create(width, g);
      const auto forward = StripWorkspace::Create(width, g);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        for (std::size_t m = 0; m < masks.size(); ++m) {
          for (StripWorkspace* meet : {generic.get(), picked.get()}) {
            ASSERT_TRUE(MeetMatchesForward(*meet, *forward, g,
                                           strip.strip_words.data(),
                                           cases[c].sources, cases[c].target,
                                           masks[m].data()))
                << shape.name << ", W=" << width << ", case " << c
                << ", mask " << m
                << (meet == picked.get() ? ", runtime pick" : ", generic");
          }
        }
      }
    }
  }
}

TEST(StripReachability, RunUntilAnswersEveryTargetOfOneBank) {
  // Every (source, target) pair of a small PA graph over one 512-lane
  // strip, through one reused workspace: each answer equals the forward
  // fixpoint's mask at the target.
  Rng rng(103);
  const DirectedGraph g = PreferentialAttachmentGraph(40, 2, 0.4, rng);
  const SampledStrip strip = RandomStrip(g, rng, 0.4, 8, 512 - 70);
  const auto meet = StripWorkspace::Create(8, g);
  StripReachabilityWorkspace<8> forward(g);
  std::array<std::uint64_t, 8> hits = {};
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    forward.Run(g, {s}, strip.strip_words.data(), strip.lane_mask.data());
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      meet->RunUntil(g, {s}, strip.strip_words.data(), t,
                     strip.lane_mask.data(), hits.data());
      for (unsigned w = 0; w < 8; ++w) {
        ASSERT_EQ(hits[w], forward.ReachedMask(t)[w])
            << "source " << s << " target " << t << " word " << w;
      }
    }
  }
}

TEST(StripReachability, NoStateLeaksBetweenReusedRuns) {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> all(std::size_t{g.num_edges()} * 8,
                                 ~std::uint64_t{0});
  std::vector<std::uint64_t> none(std::size_t{g.num_edges()} * 8, 0);
  std::array<std::uint64_t, 8> full_mask;
  full_mask.fill(~std::uint64_t{0});
  StripReachabilityWorkspace<8> ws(g);
  for (int i = 0; i < 8; ++i) {
    ws.Run(g, {0}, all.data(), full_mask.data());
    for (unsigned w = 0; w < 8; ++w) {
      ASSERT_EQ(ws.ReachedMask(3)[w], ~std::uint64_t{0});
    }
    ASSERT_EQ(ws.TouchedNodes().size(), 4u);
    ws.Run(g, {2}, none.data(), full_mask.data());
    for (unsigned w = 0; w < 8; ++w) {
      EXPECT_EQ(ws.ReachedMask(2)[w], ~std::uint64_t{0});
      EXPECT_EQ(ws.ReachedMask(3)[w], 0u);
      EXPECT_EQ(ws.ReachedMask(0)[w], 0u);
    }
    ASSERT_EQ(ws.TouchedNodes().size(), 1u);
  }
}

TEST(StripReachability, AccumulateReachedCountsSpansAllWords) {
  const DirectedGraph g = Chain();
  // Word 0 lane 1: 0->1 only. Word 3 lane 2: the whole chain.
  std::vector<std::uint64_t> words(std::size_t{g.num_edges()} * 4, 0);
  words[std::size_t{g.FindEdge(0, 1)} * 4 + 0] = 0b010;
  words[std::size_t{g.FindEdge(0, 1)} * 4 + 3] = 0b100;
  words[std::size_t{g.FindEdge(1, 2)} * 4 + 3] = 0b100;
  words[std::size_t{g.FindEdge(2, 3)} * 4 + 3] = 0b100;
  std::array<std::uint64_t, 4> lanes = {0b111, 0b111, 0b111, 0b111};
  StripReachabilityWorkspace<4> ws(g);
  ws.Run(g, {0}, words.data(), lanes.data());
  std::vector<std::uint32_t> counts(4 * 64, 0);
  ws.AccumulateReachedCounts(counts.data());
  EXPECT_EQ(counts[0 * 64 + 0], 1u);  // source only
  EXPECT_EQ(counts[0 * 64 + 1], 2u);  // {0, 1}
  EXPECT_EQ(counts[3 * 64 + 2], 4u);  // {0, 1, 2, 3}
  EXPECT_EQ(counts[1 * 64 + 0], 1u);  // source counted in every live lane
  EXPECT_EQ(counts[3 * 64 + 3], 0u);  // dead lane
}

TEST(StripReachability, FactoryCoversEveryWidthAndAutoRule) {
  const DirectedGraph g = Chain();
  for (const unsigned w : {1u, 4u, 8u}) {
    const auto ws = StripWorkspace::Create(w, g);
    ASSERT_NE(ws, nullptr);
    EXPECT_EQ(ws->words(), w);
  }
  EXPECT_EQ(ResolveStripWords(LaneWidth::k64, 4096), 1u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::k256, 64), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::k512, 64), 8u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096), 8u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 511), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 256), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 255), 1u);
  // The kAuto cache cap: deep banks step back down once the per-width-word
  // working set (2n + m)·8 bytes would spill kStripWorkingSetBudget at the
  // row-count width. The bench shapes, in order: small stays at 8 words,
  // the mid shape caps to 4, the large one to the 64-lane path.
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 1000, 2500), 8u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 4000, 10000), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 16000, 40000), 1u);
  // Explicit widths are a user override — never capped.
  EXPECT_EQ(ResolveStripWords(LaneWidth::k512, 4096, 16000, 40000), 8u);
  // Callers without a graph at hand (zero sizes) keep the row-count rule.
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 0, 0), 8u);
  EXPECT_EQ(ParseLaneWidth("auto").ValueOrDie(), LaneWidth::kAuto);
  EXPECT_EQ(ParseLaneWidth("512").ValueOrDie(), LaneWidth::k512);
  EXPECT_FALSE(ParseLaneWidth("128").ok());
  EXPECT_STREQ(LaneWidthName(LaneWidth::k256), "256");
}

TEST(StripReachability, RuntimeIsaPickMatchesGenericBitForBit) {
  // StripWorkspace::Create dispatches to the widest ISA variant the CPU
  // supports (AVX-512 → AVX2 → generic). Whatever it picked here must
  // compute exactly the generic instantiation's masks — the vector kernels
  // are the same OR/ANDNOT lattice steps in wider registers. Exercise both
  // sweep directions so the pull kernels are covered too.
  Rng rng(97);
  const DirectedGraph g = UniformRandomGraph(60, 150, rng);
  for (const unsigned width : {4u, 8u}) {
    const SampledStrip strip = RandomStrip(g, rng, 0.45, width,
                                           std::size_t{width} * 64 - 7);
    for (const double threshold : {0.0, kDefaultPullThreshold, 2.0}) {
      const auto picked = StripWorkspace::Create(width, g);
      picked->set_pull_threshold(threshold);
      picked->Run(g, {0, 11}, strip.strip_words.data(),
                  strip.lane_mask.data());
      std::unique_ptr<StripWorkspace> generic =
          width == 4
              ? std::unique_ptr<StripWorkspace>(
                    std::make_unique<StripReachabilityWorkspace<4>>(g))
              : std::make_unique<StripReachabilityWorkspace<8>>(g);
      generic->set_pull_threshold(threshold);
      generic->Run(g, {0, 11}, strip.strip_words.data(),
                   strip.lane_mask.data());
      ASSERT_EQ(picked->TouchedNodes(), generic->TouchedNodes())
          << "width " << width << " threshold " << threshold;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        for (unsigned w = 0; w < width; ++w) {
          ASSERT_EQ(picked->ReachedMask(v)[w], generic->ReachedMask(v)[w])
              << "width " << width << " threshold " << threshold << " node "
              << v << " word " << w;
        }
      }
    }
  }
}

}  // namespace
}  // namespace infoflow
