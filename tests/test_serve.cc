/// Tests for the serve subsystem: SampleBank packing and generations, the
/// QueryEngine's estimators against the direct samplers and the exact
/// enumerator, the NDJSON protocol, and the daemon's fd serving loop.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>

#include "core/exact_flow.h"
#include "core/multi_chain.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "seedmax/seed_selector.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "serve/server.h"
#include "stats/convergence.h"
#include "stats/rng.h"
#include "stats/special.h"
#include "util/json.h"

namespace infoflow::serve {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

PointIcm SmallRandomModel(std::uint64_t seed, NodeId nodes, EdgeId edges) {
  Rng rng(seed);
  auto g = Share(UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.9);
  return PointIcm(g, probs);
}

/// A conditioning constraint that is satisfiable by construction: requiring
/// flow along an existing edge (its activation alone implies the flow), so
/// a bank filtered by it keeps a healthy fraction of rows on any graph.
FlowConstraint EdgeConstraint(const PointIcm& model, EdgeId e = 0) {
  const Edge& edge = model.graph().edge(e);
  return {edge.src, edge.dst, true};
}

/// The bank ignores `chain.mh`; the tuning is for the direct MH samplers
/// the property tests compare bank answers against.
BankOptions FastBank(std::size_t states, std::size_t chains = 4) {
  BankOptions options;
  options.num_states = states;
  options.chain.num_chains = chains;
  options.chain.mh.burn_in = 1200;
  options.chain.mh.thinning = 4;
  return options;
}

QueryEngine MakeEngine(const SampleBank& bank,
                       QueryEngineOptions options = {}) {
  auto engine = QueryEngine::Create(bank.graph_ptr(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).ValueOrDie();
}

QueryRequest FlowQuery(NodeId source, NodeId sink) {
  QueryRequest request;
  request.kind = QueryKind::kFlow;
  request.sources = {source};
  request.sinks = {sink};
  return request;
}

// ------------------------------------------------------------- SampleBank

/// True when every block of `generation` holds exactly the words the
/// documented streams draw: block b's word e is the e-th BernoulliWord of
/// Rng(SampleBank::BlockSeed(seed, epoch, refresh, b)), masked to the
/// block's lanes.
::testing::AssertionResult BlocksAreDocumentedStreams(
    const BankGeneration& generation, const PointIcm& model,
    std::uint64_t seed, std::uint64_t refresh) {
  for (std::size_t b = 0; b < generation.num_blocks(); ++b) {
    Rng rng(SampleBank::BlockSeed(seed, generation.model_epoch(), refresh, b));
    const std::uint64_t* words = generation.BlockEdgeWords(b);
    for (EdgeId e = 0; e < generation.num_edges(); ++e) {
      const std::uint64_t want =
          BernoulliWord(model.prob(e), rng) & generation.BlockLaneMask(b);
      if (words[e] != want) {
        return ::testing::AssertionFailure()
               << "generation " << generation.id() << " block " << b
               << " edge " << e;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// True when row k·R+i of `generation` is stream k's i-th direct sample:
/// edge e of row r is bit r mod 64 of the e-th BernoulliWord of
/// Rng(SampleBank::BlockSeed(seed, epoch, refresh, r / 64)).
::testing::AssertionResult RowsAreDirectStreamSamples(
    const BankGeneration& generation, const PointIcm& model,
    std::uint64_t seed, std::uint64_t refresh) {
  const std::size_t per_chain = generation.rows_per_chain();
  for (std::size_t k = 0; k < generation.num_chains(); ++k) {
    for (std::size_t i = 0; i < per_chain; ++i) {
      const std::size_t r = k * per_chain + i;
      Rng rng(SampleBank::BlockSeed(seed, generation.model_epoch(), refresh,
                                    r / 64));
      PseudoState direct(generation.num_edges(), 0);
      for (EdgeId e = 0; e < generation.num_edges(); ++e) {
        direct[e] = static_cast<std::uint8_t>(
            (BernoulliWord(model.prob(e), rng) >> (r % 64)) & 1);
      }
      if (generation.UnpackRow(r) != direct) {
        return ::testing::AssertionFailure()
               << "generation " << generation.id() << " chain " << k
               << " sample " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SampleBank, RowsMatchDirectChainSamplesBitForBit) {
  // The bank must store exactly the draws its row streams document: row
  // k·R+i is stream k's i-th sample, drawn from its block's generator,
  // keyed by (seed, model epoch, refreshes within the epoch, block). 34
  // rows per stream × 3 streams = 102 rows, so stream 1 straddles the two
  // blocks.
  const PointIcm model = SmallRandomModel(7, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(100, /*chains=*/3), 42);
  ASSERT_TRUE(bank.ok()) << bank.status();
  const auto first = bank->Acquire();
  ASSERT_EQ(first->id(), 1u);
  ASSERT_EQ(first->num_rows(), 102u);
  EXPECT_TRUE(RowsAreDirectStreamSamples(*first, model, 42, 0));

  bank->Refresh();
  bank->Refresh();
  EXPECT_TRUE(RowsAreDirectStreamSamples(*bank->Acquire(), model, 42, 2));

  const PointIcm other = SmallRandomModel(8, 10, 24);
  PointIcm rebuilt(model.graph_ptr(), other.probs());
  ASSERT_TRUE(bank->Rebuild(rebuilt, /*model_epoch=*/7).ok());
  const auto after = bank->Acquire();
  EXPECT_EQ(after->model_epoch(), 7u);
  EXPECT_TRUE(RowsAreDirectStreamSamples(*after, rebuilt, 42, 0));
  bank->Refresh();
  EXPECT_TRUE(RowsAreDirectStreamSamples(*bank->Acquire(), rebuilt, 42, 1));
}

TEST(SampleBank, EdgeMajorPlaneMatchesRowsIncludingRaggedTail) {
  // The plane must agree bit-for-bit with the rows: bit s of
  // BlockEdgeWords(b)[e] is edge e of row b·64+s, every block holds its
  // documented stream, and lanes past the final ragged row stay zero on
  // every fill. 34 per stream × 3 streams = 102 rows → blocks of 64 and
  // 38.
  const PointIcm model = SmallRandomModel(53, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(100, 3), 16);
  ASSERT_TRUE(bank.ok());
  for (std::uint64_t refresh = 0; refresh < 2; ++refresh) {
    if (refresh > 0) bank->Refresh();
    const auto generation = bank->Acquire();
    ASSERT_EQ(generation->num_rows(), 102u);
    ASSERT_EQ(generation->num_blocks(), 2u);
    EXPECT_EQ(generation->BlockLaneMask(0), ~std::uint64_t{0});
    EXPECT_EQ(generation->BlockLaneMask(1),
              (std::uint64_t{1} << (102 - 64)) - 1);
    EXPECT_TRUE(BlocksAreDocumentedStreams(*generation, model, 16, refresh));
    for (std::size_t b = 0; b < generation->num_blocks(); ++b) {
      const std::uint64_t* words = generation->BlockEdgeWords(b);
      const std::uint64_t lanes = generation->BlockLaneMask(b);
      for (EdgeId e = 0; e < generation->num_edges(); ++e) {
        ASSERT_EQ(words[e] & ~lanes, 0u) << "block " << b << " edge " << e;
        for (std::size_t s = 0; s < 64; ++s) {
          const std::size_t row = b * 64 + s;
          if (row >= generation->num_rows()) break;
          ASSERT_EQ((words[e] >> s) & 1, generation->UnpackRow(row)[e])
              << "block " << b << " lane " << s << " edge " << e;
        }
      }
    }
  }
}

TEST(SampleBank, GenerationIsBitIdenticalAcrossThreadCounts) {
  // The fill pool is a scheduling knob only: every generation — the
  // Create fill, a refresh and a rebuild — is the same plane at 1, 2 and 4
  // threads. Run under TSan (the CI tsan job matches "Bank") this also
  // shows the parallel fill writes disjoint blocks.
  const PointIcm model = SmallRandomModel(29, 40, 160);
  const PointIcm next = SmallRandomModel(30, 40, 160);
  std::vector<std::vector<std::uint64_t>> planes[3];
  const std::size_t threads[3] = {1, 2, 4};
  for (std::size_t t = 0; t < 3; ++t) {
    BankOptions options = FastBank(1000);
    options.chain.num_threads = threads[t];
    auto bank = SampleBank::Create(model, options, 5);
    ASSERT_TRUE(bank.ok());
    const auto snapshot = [&] {
      const auto generation = bank->Acquire();
      const std::uint64_t* words = generation->BlockEdgeWords(0);
      planes[t].emplace_back(
          words, words + generation->num_blocks() * generation->num_edges());
    };
    snapshot();
    bank->Refresh();
    snapshot();
    ASSERT_TRUE(
        bank->Rebuild(PointIcm(model.graph_ptr(), next.probs()), 2).ok());
    snapshot();
  }
  for (std::size_t t = 1; t < 3; ++t) {
    ASSERT_EQ(planes[t].size(), planes[0].size());
    for (std::size_t g = 0; g < planes[0].size(); ++g) {
      EXPECT_EQ(planes[t][g], planes[0][g])
          << threads[t] << " threads, generation " << g + 1;
    }
  }
}

TEST(SampleBank, RowsFitEquationThreeChiSquared) {
  // Rows are exact draws of Pr[x | M] (Eq. 3): on a 6-edge graph, the
  // empirical distribution of all 2^6 pseudo-states across 16384 rows fits
  // the product of edge Bernoullis. Probabilities in [0.3, 0.7] keep every
  // expected cell count above 10. The 99.9% critical value of χ² with 63
  // degrees of freedom is 103.4; the seed is fixed, so this is
  // deterministic.
  Rng rng(88);
  auto g = Share(UniformRandomGraph(5, 6, rng));
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.3, 0.7);
  const PointIcm model(g, probs);
  auto bank = SampleBank::Create(model, FastBank(16384), 61);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  std::vector<double> observed(64, 0.0);
  for (std::size_t r = 0; r < generation->num_rows(); ++r) {
    const PseudoState row = generation->UnpackRow(r);
    std::size_t cell = 0;
    for (EdgeId e = 0; e < 6; ++e) cell |= std::size_t{row[e]} << e;
    observed[cell] += 1.0;
  }
  const double n = static_cast<double>(generation->num_rows());
  double chi2 = 0.0;
  for (std::size_t cell = 0; cell < 64; ++cell) {
    double expected = n;
    for (EdgeId e = 0; e < 6; ++e) {
      expected *= (cell >> e & 1) != 0 ? probs[e] : 1.0 - probs[e];
    }
    ASSERT_GT(expected, 10.0);
    chi2 += (observed[cell] - expected) * (observed[cell] - expected) /
            expected;
  }
  EXPECT_LT(chi2, 103.4);
  EXPECT_GT(1.0 - ChiSquareCdf(chi2, 63.0), 1e-3);
}

TEST(SampleBank, RowCountAndLayout) {
  const PointIcm model = SmallRandomModel(3, 8, 20);
  // 100 states over 3 streams → ⌈100/3⌉ = 34 per stream, 102 rows.
  auto bank = SampleBank::Create(model, FastBank(100, 3), 5);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  EXPECT_EQ(generation->num_rows(), 102u);
  EXPECT_EQ(generation->num_chains(), 3u);
  EXPECT_EQ(generation->rows_per_chain(), 34u);
  EXPECT_EQ(bank->rows_per_generation(), 102u);
  EXPECT_EQ(generation->num_edges(), 20u);
}

TEST(SampleBank, RefreshPublishesNewGenerationWithoutInvalidatingReaders) {
  const PointIcm model = SmallRandomModel(11, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(128), 9);
  ASSERT_TRUE(bank.ok());
  const auto before = bank->Acquire();
  ASSERT_EQ(before->id(), 1u);
  // Snapshot a row, refresh, and check the old generation is untouched
  // while the new one differs (fresh draws).
  const PseudoState row0 = before->UnpackRow(0);
  bank->Refresh();
  const auto after = bank->Acquire();
  EXPECT_EQ(after->id(), 2u);
  EXPECT_EQ(before->id(), 1u);
  EXPECT_EQ(before->UnpackRow(0), row0);
  bool any_difference = false;
  for (std::size_t r = 0; r < before->num_rows() && !any_difference; ++r) {
    any_difference = before->UnpackRow(r) != after->UnpackRow(r);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SampleBank, ValidatesOptions) {
  const PointIcm model = SmallRandomModel(1, 6, 12);
  BankOptions zero;
  zero.num_states = 0;
  EXPECT_FALSE(SampleBank::Create(model, zero, 1).ok());
}

// ------------------------------------------------------------ QueryEngine

/// The 0/1 draws of estimate `j` of `request` (sink j, or the joint
/// event), split into the bank's row streams: stream k holds, in row
/// order, the draw of every row of stream k that satisfies
/// `request.given`. Replayed one row at a time from UnpackRow, so the
/// streams are independent of the engine's bitmaps.
std::vector<std::vector<double>> RowStreams(const BankGeneration& generation,
                                            const PointIcm& model,
                                            const QueryRequest& request,
                                            std::size_t j) {
  ReachabilityWorkspace ws(model.graph());
  const auto holds = [&](const PseudoState& row, NodeId source, NodeId sink) {
    return ws.RunUntil(model.graph(), {source}, row, sink);
  };
  std::vector<std::vector<double>> streams(generation.num_chains());
  for (std::size_t r = 0; r < generation.num_rows(); ++r) {
    const PseudoState row = generation.UnpackRow(r);
    bool kept = true;
    for (const FlowConstraint& c : request.given) {
      kept = kept && holds(row, c.source, c.sink) == c.must_flow;
    }
    if (!kept) continue;
    bool draw = true;
    if (request.kind == QueryKind::kJoint) {
      for (const FlowConstraint& c : request.flows) {
        draw = draw && holds(row, c.source, c.sink) == c.must_flow;
      }
    } else {
      draw = ws.RunUntil(model.graph(), request.sources, row,
                         request.sinks.at(j));
    }
    streams[r / generation.rows_per_chain()].push_back(draw ? 1.0 : 0.0);
  }
  return streams;
}

/// Checks every estimate of `result` against its RowStreams: the value bit
/// for bit (an integer count over the survivors), the binomial MCSE and
/// ESS of i.i.d. rows, and — when every stream keeps the same number of
/// rows — the mean and split-R̂ ComputeChainDiagnostics gives the streams
/// taken as chains.
void ExpectMatchesRowStreams(const BankGeneration& generation,
                             const PointIcm& model,
                             const QueryRequest& request,
                             const QueryResult& result) {
  ASSERT_TRUE(result.status.ok()) << result.status;
  const std::size_t num_estimates =
      request.kind == QueryKind::kJoint ? 1 : request.sinks.size();
  ASSERT_EQ(result.estimates.size(), num_estimates);
  for (std::size_t j = 0; j < num_estimates; ++j) {
    SCOPED_TRACE(::testing::Message() << "estimate " << j);
    const auto streams = RowStreams(generation, model, request, j);
    double ones = 0.0;
    std::size_t rows = 0;
    bool equal_lengths = true;
    for (const auto& stream : streams) {
      for (const double d : stream) ones += d;
      rows += stream.size();
      equal_lengths = equal_lengths && stream.size() == streams[0].size();
    }
    const SinkEstimate& est = result.estimates[j];
    EXPECT_EQ(result.effective_rows, rows);
    EXPECT_EQ(est.value, ones / static_cast<double>(rows));
    EXPECT_EQ(est.diagnostics.ess, static_cast<double>(rows));
    EXPECT_DOUBLE_EQ(est.diagnostics.mcse,
                     std::sqrt(est.value * (1.0 - est.value) /
                               static_cast<double>(rows)));
    if (request.given.empty()) {
      ASSERT_TRUE(equal_lengths);
      const ChainDiagnostics chains = ComputeChainDiagnostics(streams);
      EXPECT_NEAR(est.value, chains.mean, 1e-15);
      EXPECT_NEAR(est.diagnostics.rhat, SplitChainRhat(streams), 1e-12);
      EXPECT_GT(est.diagnostics.rhat, 0.9);
    } else {
      EXPECT_LT(rows, generation.num_rows());
      EXPECT_TRUE(std::isfinite(est.diagnostics.rhat));
    }
  }
}

TEST(QueryEngine, UnconditionalFlowMatchesMultiChainExactly) {
  // Each estimate is built from indicator popcounts over the bank's row
  // streams, so it must reproduce what the multi-chain diagnostics give
  // the streams replayed row by row. 2000 states over 4 streams → 500
  // rows each.
  const PointIcm model = SmallRandomModel(13, 10, 26);
  auto bank = SampleBank::Create(model, FastBank(2000), 77);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  const std::vector<QueryRequest> batch = {FlowQuery(0, 9), FlowQuery(0, 5),
                                           FlowQuery(1, 8)};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "query " << i);
    EXPECT_EQ(results[i].effective_rows, generation->num_rows());
    ExpectMatchesRowStreams(*generation, model, batch[i], results[i]);
  }
}

TEST(QueryEngine, CommunityAndJointMatchMultiChainExactly) {
  // Per-sink community estimates and the joint estimate take the same
  // popcount path: 1600 states over 4 streams → 400 rows each, so the
  // split-R̂ halves are exact and every number must match the row-stream
  // replay.
  const PointIcm model = SmallRandomModel(17, 12, 30);
  auto bank = SampleBank::Create(model, FastBank(1600), 31);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0, 1};
  community.sinks = {5, 8, 11};
  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows = {{0, 5, true}, {1, 8, true}};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, {community, joint});
  ASSERT_EQ(results.size(), 2u);
  ExpectMatchesRowStreams(*generation, model, community, results[0]);
  ExpectMatchesRowStreams(*generation, model, joint, results[1]);
}

TEST(QueryEngine, FrontierDedupSharesOneScanAndPreservesAnswers) {
  const PointIcm model = SmallRandomModel(19, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(600), 12);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  // Same frontier {2}, different sinks → merged; distinct frontier → not.
  std::vector<QueryRequest> batch = {FlowQuery(2, 7), FlowQuery(2, 9),
                                     FlowQuery(3, 7)};
  const std::vector<QueryResult> merged =
      engine.AnswerBatch(*generation, batch);
  EXPECT_TRUE(merged[0].frontier_shared);
  EXPECT_TRUE(merged[1].frontier_shared);
  EXPECT_FALSE(merged[2].frontier_shared);

  // Answers are identical to the queries run alone.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<QueryResult> alone =
        engine.AnswerBatch(*generation, {batch[i]});
    EXPECT_DOUBLE_EQ(merged[i].estimates[0].value,
                     alone[0].estimates[0].value);
  }
}

TEST(QueryEngine, ConditionalReportsEffectiveRows) {
  const PointIcm model = SmallRandomModel(23, 8, 16);
  QueryEngineOptions engine_options;
  engine_options.min_conditional_rows = 8;
  auto bank = SampleBank::Create(model, FastBank(1000), 3);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank, engine_options);
  const auto generation = bank->Acquire();

  QueryRequest request = FlowQuery(0, 5);
  request.given = {EdgeConstraint(model)};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, {request});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_GT(results[0].effective_rows, 0u);
  EXPECT_LT(results[0].effective_rows, results[0].total_rows);
  // The filtered mean is a probability.
  EXPECT_GE(results[0].estimates[0].value, 0.0);
  EXPECT_LE(results[0].estimates[0].value, 1.0);
  // The survivors, and the estimate over them, are those of the row-by-row
  // replay.
  ExpectMatchesRowStreams(*generation, model, request, results[0]);
}

TEST(QueryEngine, ConditionalFloorFailsWithDescriptiveStatus) {
  const PointIcm model = SmallRandomModel(29, 8, 16);
  QueryEngineOptions engine_options;
  engine_options.min_conditional_rows = 1 << 20;  // unreachable floor
  auto bank = SampleBank::Create(model, FastBank(400), 4);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank, engine_options);

  QueryRequest request = FlowQuery(0, 5);
  request.id = "cond-query";
  request.given = {{1, 4, true}};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*bank->Acquire(), {request});
  EXPECT_EQ(results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results[0].status.message().find("cond-query"),
            std::string::npos);
  EXPECT_NE(results[0].status.message().find("floor"), std::string::npos);
}

TEST(QueryEngine, RejectsInvalidRequestsIndividually) {
  const PointIcm model = SmallRandomModel(31, 8, 16);
  auto bank = SampleBank::Create(model, FastBank(200), 6);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  QueryRequest contradictory = FlowQuery(0, 5);
  contradictory.given = {{1, 4, true}, {1, 4, false}};
  QueryRequest out_of_range = FlowQuery(0, 999);
  QueryRequest empty_joint;
  empty_joint.kind = QueryKind::kJoint;
  QueryRequest good = FlowQuery(0, 5);

  const std::vector<QueryResult> results = engine.AnswerBatch(
      *generation, {contradictory, out_of_range, empty_joint, good});
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[0].status.message().find("contradict"),
            std::string::npos);
  EXPECT_EQ(results[1].status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[3].status.ok());
}

TEST(QueryEngine, DeadlineExceededOnImpossibleTimeout) {
  const PointIcm model = SmallRandomModel(37, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(2000), 21);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);

  QueryRequest request = FlowQuery(0, 5);
  request.timeout_ms = 1e-7;  // expires before the first row chunk
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*bank->Acquire(), {request});
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryEngine, BatchAndScalarReachabilityAgreeBitForBit) {
  // The bit-parallel path must be an exact drop-in: same indicator sets,
  // same doubles, same effective-row counts — across every query kind,
  // including conditionals, on a bank whose row count is not a multiple of
  // 64 (225 per chain × 4 chains = 900 rows; 900 mod 64 = 4, so the final
  // block is ragged).
  const PointIcm model = SmallRandomModel(41, 12, 30);
  auto bank = SampleBank::Create(model, FastBank(900), 55);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  ASSERT_NE(generation->num_rows() % 64, 0u);

  QueryEngineOptions scalar_options;
  scalar_options.use_batch_reachability = false;
  scalar_options.min_conditional_rows = 4;
  QueryEngineOptions batch_options;
  batch_options.min_conditional_rows = 4;
  QueryEngine batch = MakeEngine(*bank, batch_options);
  QueryEngine scalar = MakeEngine(*bank, scalar_options);

  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0, 3};
  community.sinks = {5, 8, 11};
  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows = {{0, 5, true}, {1, 8, false}};
  QueryRequest conditional = FlowQuery(0, 9);
  conditional.given = {EdgeConstraint(model)};
  QueryRequest forbid_conditional = FlowQuery(2, 7);
  forbid_conditional.given = {EdgeConstraint(model), {0, 11, false}};
  QueryRequest conditional_joint;
  conditional_joint.kind = QueryKind::kJoint;
  conditional_joint.flows = {{2, 9, true}};
  conditional_joint.given = {EdgeConstraint(model)};
  const std::vector<QueryRequest> requests = {
      FlowQuery(0, 9),  community,          joint,
      conditional,      forbid_conditional, conditional_joint};

  const std::vector<QueryResult> via_batch =
      batch.AnswerBatch(*generation, requests);
  const std::vector<QueryResult> via_scalar =
      scalar.AnswerBatch(*generation, requests);
  ASSERT_EQ(via_batch.size(), via_scalar.size());
  for (std::size_t i = 0; i < via_batch.size(); ++i) {
    ASSERT_EQ(via_batch[i].status.code(), via_scalar[i].status.code())
        << "request " << i;
    if (!via_batch[i].status.ok()) continue;
    EXPECT_EQ(via_batch[i].effective_rows, via_scalar[i].effective_rows)
        << "request " << i;
    ASSERT_EQ(via_batch[i].estimates.size(), via_scalar[i].estimates.size());
    for (std::size_t j = 0; j < via_batch[i].estimates.size(); ++j) {
      EXPECT_DOUBLE_EQ(via_batch[i].estimates[j].value,
                       via_scalar[i].estimates[j].value)
          << "request " << i << " sink " << j;
      EXPECT_DOUBLE_EQ(via_batch[i].estimates[j].diagnostics.mcse,
                       via_scalar[i].estimates[j].diagnostics.mcse)
          << "request " << i << " sink " << j;
    }
  }
}

TEST(QueryEngine, LaneWidthsAgreeBitForBitIncludingConditionals) {
  // Widening the replay past 64 lanes must be invisible in the answers:
  // engines pinned to 64, 256, and 512 lanes (and auto) return the scalar
  // engine's statuses and doubles exactly, across every query kind. Two
  // banks, both with a ragged tail block:
  // - 150 per chain × 4 chains = 600 rows: ≥512 so auto steps up to
  //   8-word strips, 600 mod 64 = 24, and the second strip carries dead
  //   blocks past the bank (10 blocks over strips of 8);
  // - 34 per chain × 3 chains = 102 rows: one strip at every width, with
  //   38 live lanes in its second block and every later word dead.
  // Each bank is answered under a floor every conditional clears and under
  // one none does (the refusal must read the same at every width), on a
  // refreshed generation and on the one it replaced.
  const PointIcm model = SmallRandomModel(61, 12, 30);
  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0, 3};
  community.sinks = {5, 8, 11};
  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows = {{0, 5, true}, {1, 8, false}};
  QueryRequest conditional = FlowQuery(0, 9);
  conditional.given = {EdgeConstraint(model)};
  QueryRequest forbid_conditional = FlowQuery(2, 7);
  forbid_conditional.given = {EdgeConstraint(model), {0, 11, false}};
  const std::vector<QueryRequest> requests = {FlowQuery(0, 9), community,
                                              joint, conditional,
                                              forbid_conditional};

  struct Shape {
    std::size_t states;
    std::size_t chains;
    std::uint64_t seed;
  };
  for (const Shape shape : {Shape{600, 4, 77}, Shape{100, 3, 8}}) {
    auto bank = SampleBank::Create(
        model, FastBank(shape.states, shape.chains), shape.seed);
    ASSERT_TRUE(bank.ok());
    const auto replaced = bank->Acquire();
    ASSERT_NE(replaced->num_rows() % 64, 0u);
    bank->Refresh();
    const auto refreshed = bank->Acquire();
    ASSERT_EQ(refreshed->id(), replaced->id() + 1);
    for (const std::size_t floor : {std::size_t{4}, std::size_t{4096}}) {
      QueryEngineOptions scalar_options;
      scalar_options.use_batch_reachability = false;
      scalar_options.min_conditional_rows = floor;
      QueryEngine scalar = MakeEngine(*bank, scalar_options);
      for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k256,
                                    LaneWidth::k512, LaneWidth::kAuto}) {
        QueryEngineOptions options;
        options.min_conditional_rows = floor;
        options.lanes = lanes;
        QueryEngine engine = MakeEngine(*bank, options);
        for (const auto& generation : {refreshed, replaced}) {
          SCOPED_TRACE(std::to_string(generation->num_rows()) + " rows, " +
                       "generation " + std::to_string(generation->id()) +
                       ", floor " + std::to_string(floor) + ", " +
                       LaneWidthName(lanes) + " lanes");
          const std::vector<QueryResult> reference =
              scalar.AnswerBatch(*generation, requests);
          const std::vector<QueryResult> results =
              engine.AnswerBatch(*generation, requests);
          ASSERT_EQ(results.size(), reference.size());
          for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].status.code(), reference[i].status.code())
                << "request " << i;
            EXPECT_EQ(results[i].status.message(),
                      reference[i].status.message())
                << "request " << i;
            EXPECT_EQ(results[i].generation, generation->id());
            if (!results[i].status.ok()) continue;
            EXPECT_EQ(results[i].effective_rows, reference[i].effective_rows)
                << "request " << i;
            ASSERT_EQ(results[i].estimates.size(),
                      reference[i].estimates.size());
            for (std::size_t j = 0; j < results[i].estimates.size(); ++j) {
              EXPECT_DOUBLE_EQ(results[i].estimates[j].value,
                               reference[i].estimates[j].value)
                  << "request " << i << " sink " << j;
              EXPECT_DOUBLE_EQ(results[i].estimates[j].diagnostics.mcse,
                               reference[i].estimates[j].diagnostics.mcse)
                  << "request " << i << " sink " << j;
            }
          }
          // Under the high floor every conditional is refused, at every
          // width, with the message the scalar reference gives.
          if (floor > generation->num_rows()) {
            EXPECT_EQ(results[3].status.code(),
                      StatusCode::kFailedPrecondition);
            EXPECT_EQ(results[4].status.code(),
                      StatusCode::kFailedPrecondition);
          }
        }
      }
    }
  }
}

TEST(QueryEngine, MeetSearchAnswersAlikeAtEveryLaneWidth) {
  // Single-sink scans meet in the middle at 256 and 512 lanes; the 64-lane
  // engine replays forward. Flows (single-pair, multi-source, source =
  // sink), flows given one or two conditions, and two- and three-flow joint
  // queries must answer bitwise alike at all three widths, each alone in
  // its batch (one single-sink scan) and all in one batch (merged
  // frontiers, shared given masks). 1,000 rows leave a ragged tail block.
  const PointIcm model = SmallRandomModel(67, 40, 110);
  auto bank = SampleBank::Create(model, FastBank(250), 29);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  const NodeId n = model.graph().num_nodes();
  Rng rng(71);
  const auto node = [&] {
    return static_cast<NodeId>(rng.UniformInt(0, n - 1));
  };
  const auto condition = [&]() -> FlowConstraint {
    if (rng.Bernoulli(0.5)) {
      return EdgeConstraint(
          model, static_cast<EdgeId>(rng.UniformInt(
                     0, model.graph().num_edges() - 1)));
    }
    return {node(), node(), false};
  };
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 24; ++i) requests.push_back(FlowQuery(node(), node()));
  const NodeId self = node();
  requests.push_back(FlowQuery(self, self));
  for (int i = 0; i < 6; ++i) {
    QueryRequest multi = FlowQuery(node(), node());
    multi.sources.push_back(node());
    multi.sources.push_back(node());
    requests.push_back(multi);
  }
  for (int i = 0; i < 12; ++i) {
    QueryRequest given = FlowQuery(node(), node());
    given.given = {condition()};
    if (i % 2 == 1) given.given.push_back(condition());
    requests.push_back(given);
  }
  for (int i = 0; i < 10; ++i) {
    QueryRequest joint;
    joint.kind = QueryKind::kJoint;
    for (int f = 0; f < 2 + i % 2; ++f) {
      joint.flows.push_back({node(), node(), rng.Bernoulli(0.7)});
    }
    if (i % 3 == 2) joint.given = {condition()};
    requests.push_back(joint);
  }

  QueryEngineOptions base;
  base.min_conditional_rows = 1;
  std::vector<QueryEngine> engines;
  for (const LaneWidth lanes :
       {LaneWidth::k64, LaneWidth::k256, LaneWidth::k512}) {
    QueryEngineOptions options = base;
    options.lanes = lanes;
    engines.push_back(MakeEngine(*bank, options));
  }
  const auto expect_alike = [](const QueryResult& got,
                               const QueryResult& want,
                               const std::string& label) {
    ASSERT_EQ(got.status.code(), want.status.code()) << label;
    EXPECT_EQ(got.status.message(), want.status.message()) << label;
    EXPECT_EQ(got.effective_rows, want.effective_rows) << label;
    ASSERT_EQ(got.estimates.size(), want.estimates.size()) << label;
    for (std::size_t j = 0; j < got.estimates.size(); ++j) {
      EXPECT_EQ(got.estimates[j].value, want.estimates[j].value) << label;
      EXPECT_EQ(got.estimates[j].diagnostics.mcse,
                want.estimates[j].diagnostics.mcse)
          << label;
    }
  };
  std::size_t answered = 0;
  const std::vector<QueryResult> batch64 =
      engines[0].AnswerBatch(*generation, requests);
  for (std::size_t e = 1; e < engines.size(); ++e) {
    const std::vector<QueryResult> batch =
        engines[e].AnswerBatch(*generation, requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string label =
          "engine " + std::to_string(e) + " request " + std::to_string(i);
      expect_alike(batch[i], batch64[i], label + " (batched)");
      const QueryResult alone =
          engines[e].AnswerBatch(*generation, {requests[i]}).at(0);
      expect_alike(alone, engines[0].AnswerBatch(*generation, {requests[i]})
                              .at(0),
                   label + " (alone)");
      if (alone.status.ok()) ++answered;
    }
  }
  // Nearly every request is answered (a condition may contradict itself or
  // leave no survivors), so the comparison covers real estimates.
  EXPECT_GE(answered, 2 * (requests.size() - 6));
}

TEST(QueryEngine, DuplicateSourcesDedupedBeforeFanOut) {
  const PointIcm model = SmallRandomModel(43, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(600), 14);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  // {2, 2, 2} canonicalizes to {2}: the two queries share one frontier
  // scan and agree with the deduplicated query run alone.
  QueryRequest noisy = FlowQuery(2, 7);
  noisy.sources = {2, 2, 2};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, {noisy, FlowQuery(2, 7)});
  EXPECT_TRUE(results[0].frontier_shared);
  EXPECT_TRUE(results[1].frontier_shared);
  ASSERT_TRUE(results[0].status.ok());
  EXPECT_DOUBLE_EQ(results[0].estimates[0].value,
                   results[1].estimates[0].value);
}

TEST(QueryEngine, OutOfRangeSourceFailsWithDescriptiveStatus) {
  // An out-of-range endpoint must surface as a per-query Status the caller
  // can read, never reach the BFS workspaces' IF_CHECK aborts.
  const PointIcm model = SmallRandomModel(47, 8, 16);
  auto bank = SampleBank::Create(model, FastBank(200), 8);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);

  QueryRequest bad_source = FlowQuery(0, 5);
  bad_source.sources = {0, 888};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*bank->Acquire(), {bad_source});
  EXPECT_EQ(results[0].status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(results[0].status.message().find("888"), std::string::npos);
  EXPECT_NE(results[0].status.message().find("source"), std::string::npos);
}

TEST(SampleBank, RefreshAndRebuildUnderConcurrentEdgeMajorReaders) {
  // Generations are immutable after publish: readers holding a generation
  // check its edge-major plane against the documented streams while the
  // bank refreshes and rebuilds underneath them. Run under TSan (the CI
  // tsan job matches "Bank") this proves the plane needs no locking beyond
  // the publish pointer swap. The driver alternates Refresh and Rebuild,
  // so even generation ids are first refreshes and odd ones fresh epochs.
  const PointIcm model = SmallRandomModel(59, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(150, 3), 18);
  ASSERT_TRUE(bank.ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto generation = bank->Acquire();
        if (!BlocksAreDocumentedStreams(*generation, model, 18,
                                        generation->id() % 2 == 0 ? 1 : 0)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    bank->Refresh();
    ASSERT_TRUE(bank->Rebuild(model, /*model_epoch=*/2 + i).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(bank->Acquire()->id(), 7u);
}

TEST(SampleBank, StripPlaneAcquireUnderConcurrentRefreshMatchesBlocks) {
  // AcquireStripPlane lazily interleaves and publishes per (generation,
  // width) with a keep-one-winner swap. Readers racing on first acquisition
  // while the bank refreshes and rebuilds underneath must always see a
  // plane that matches their own generation's edge-major blocks word for
  // word, with zero words and lane masks past the bank's last block. Run
  // under TSan (the CI tsan job matches "Bank") this proves the lazy build
  // publishes safely.
  const PointIcm model = SmallRandomModel(67, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(150, 3), 23);
  ASSERT_TRUE(bank.ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const unsigned width = t % 2 == 0 ? 4 : 8;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto generation = bank->Acquire();
        const auto plane = generation->AcquireStripPlane(width);
        if (plane->width != width ||
            plane->num_blocks != generation->num_blocks()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t s = 0; s < plane->num_strips; ++s) {
          const std::uint64_t* words = plane->StripWords(s);
          const std::uint64_t* lanes = plane->StripLaneMask(s);
          for (unsigned w = 0; w < width; ++w) {
            const std::size_t b = s * width + w;
            if (b >= generation->num_blocks()) {
              if (lanes[w] != 0) {
                failures.fetch_add(1, std::memory_order_relaxed);
              }
              continue;
            }
            if (lanes[w] != generation->BlockLaneMask(b)) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            const std::uint64_t* block = generation->BlockEdgeWords(b);
            for (EdgeId e = 0; e < generation->num_edges(); ++e) {
              if (words[e * width + w] != block[e]) {
                failures.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
      }
    });
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    bank->Refresh();
    ASSERT_TRUE(bank->Rebuild(model, /*model_epoch=*/2 + i).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0u);
}

// -------------------------------------------- estimator agreement properties

TEST(ServeProperty, BankAgreesWithIndependentSamplerWithinThreeMcse) {
  // Acceptance property: bank estimates and a direct sampler run with a
  // *different* seed agree within 3× their combined MCSE — on several
  // random graphs, unconditional and conditional.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const PointIcm model =
        SmallRandomModel(seed, 12, 30);
    const BankOptions options = FastBank(4000);
    auto bank = SampleBank::Create(model, options, seed);
    ASSERT_TRUE(bank.ok());
    QueryEngine engine = MakeEngine(*bank);
    const auto generation = bank->Acquire();

    // Unconditional.
    QueryRequest query = FlowQuery(0, 11);
    auto direct = MultiChainSampler::Create(model, {}, options.chain,
                                            seed + 5000);
    ASSERT_TRUE(direct.ok());
    const MultiChainEstimate expected =
        direct->EstimateFlowProbability(0, 11, options.num_states);
    const std::vector<QueryResult> results =
        engine.AnswerBatch(*generation, {query});
    ASSERT_TRUE(results[0].status.ok());
    const SinkEstimate& est = results[0].estimates[0];
    const double tolerance =
        3.0 * std::sqrt(est.diagnostics.mcse * est.diagnostics.mcse +
                        expected.diagnostics.mcse *
                            expected.diagnostics.mcse) +
        1e-9;
    EXPECT_NEAR(est.value, expected.value, tolerance)
        << "seed " << seed << ": bank mcse " << est.diagnostics.mcse
        << ", direct mcse " << expected.diagnostics.mcse;

    // Conditional: filter-based bank estimate vs a sampler constrained to
    // the conditioning set (both estimate Eq. 8's numerator/denominator
    // ratio, by different routes).
    QueryRequest conditional = FlowQuery(0, 11);
    conditional.given = {EdgeConstraint(model)};
    auto constrained = MultiChainSampler::Create(
        model, conditional.given, options.chain, seed + 9000);
    ASSERT_TRUE(constrained.ok());
    const MultiChainEstimate cond_expected =
        constrained->EstimateFlowProbability(0, 11, options.num_states);
    const std::vector<QueryResult> cond_results =
        engine.AnswerBatch(*generation, {conditional});
    ASSERT_TRUE(cond_results[0].status.ok()) << cond_results[0].status;
    const SinkEstimate& cond_est = cond_results[0].estimates[0];
    const double cond_tolerance =
        3.0 * std::sqrt(
                  cond_est.diagnostics.mcse * cond_est.diagnostics.mcse +
                  cond_expected.diagnostics.mcse *
                      cond_expected.diagnostics.mcse) +
        1e-9;
    EXPECT_NEAR(cond_est.value, cond_expected.value, cond_tolerance)
        << "seed " << seed << ": effective rows "
        << cond_results[0].effective_rows;
  }
}

TEST(ServeProperty, BankMatchesExactEnumerationOnTinyGraphs) {
  // Ground truth: on graphs small enough for 2^m enumeration, bank
  // estimates must land within 3×MCSE of the exact probabilities —
  // unconditional and conditional.
  for (const std::uint64_t seed : {7u, 77u}) {
    const PointIcm model = SmallRandomModel(seed, 7, 12);
    const BankOptions options = FastBank(6000);
    auto bank = SampleBank::Create(model, options, seed * 13);
    ASSERT_TRUE(bank.ok());
    QueryEngine engine = MakeEngine(*bank);
    const auto generation = bank->Acquire();

    QueryRequest unconditional = FlowQuery(0, 6);
    QueryRequest conditional = FlowQuery(0, 6);
    conditional.given = {EdgeConstraint(model)};
    const std::vector<QueryResult> results =
        engine.AnswerBatch(*generation, {unconditional, conditional});

    ASSERT_TRUE(results[0].status.ok());
    const double exact = ExactFlowByEnumeration(model, 0, 6);
    const SinkEstimate& est = results[0].estimates[0];
    EXPECT_NEAR(est.value, exact,
                std::max(3.0 * est.diagnostics.mcse, 1e-3))
        << "seed " << seed;

    ASSERT_TRUE(results[1].status.ok()) << results[1].status;
    auto cond_exact = ExactConditionalFlowByEnumeration(
        model, 0, 6, conditional.given);
    ASSERT_TRUE(cond_exact.ok());
    const SinkEstimate& cond_est = results[1].estimates[0];
    EXPECT_NEAR(cond_est.value, *cond_exact,
                std::max(3.0 * cond_est.diagnostics.mcse, 1e-3))
        << "seed " << seed << ": effective rows "
        << results[1].effective_rows;
  }
}

// --------------------------------------------------------------- protocol

TEST(Protocol, ParsesSingularAndPluralForms) {
  auto flow = ParseRequestLine(R"({"id":"a","source":1,"sink":4})");
  ASSERT_TRUE(flow.ok()) << flow.status();
  EXPECT_EQ(flow->kind, QueryKind::kFlow);
  EXPECT_EQ(flow->sources, std::vector<NodeId>({1}));
  EXPECT_EQ(flow->sinks, std::vector<NodeId>({4}));

  auto community =
      ParseRequestLine(R"({"sources":[0,2],"sinks":[3,4,5],"timeout_ms":9})");
  ASSERT_TRUE(community.ok());
  EXPECT_EQ(community->kind, QueryKind::kCommunity);
  EXPECT_EQ(community->sources, std::vector<NodeId>({0, 2}));
  EXPECT_EQ(community->sinks, std::vector<NodeId>({3, 4, 5}));
  EXPECT_DOUBLE_EQ(community->timeout_ms, 9.0);

  auto joint = ParseRequestLine(R"({"kind":"joint","flows":"0>3 2!>4"})");
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->kind, QueryKind::kJoint);
  ASSERT_EQ(joint->flows.size(), 2u);
  EXPECT_TRUE(joint->flows[0].must_flow);
  EXPECT_FALSE(joint->flows[1].must_flow);

  auto given = ParseRequestLine(R"({"source":0,"sink":3,"given":"1>2"})");
  ASSERT_TRUE(given.ok());
  ASSERT_EQ(given->given.size(), 1u);
  EXPECT_EQ(given->given[0].source, 1u);
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequestLine("[1,2,3]").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"source":-1,"sink":3})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"source":0.5,"sink":3})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"source":0,"sink":3,"given":"x>y"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"sideways","source":0,"sink":3})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"joint","flows":"0>3","sink":2})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"source":0,"sink":3,"flows":"1>2"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"source":0,"sink":3,"timeout_ms":-1})").ok());
  // Integers past their type are refused before any cast: 2^32 + 5 must
  // not wrap to node 5, nor 1e300 to node 0, nor 2^64 to query id 0.
  for (const char* line :
       {R"({"id":"x","source":4294967301,"sink":5})",
        R"({"sources":[0],"sinks":[4294967301]})",
        R"({"source":1e300,"sink":5})", R"({"source":0,"sink":4294967296})",
        R"({"source":0,"sink":3,"query_id":18446744073709551616})",
        R"({"source":0,"sink":3,"query_id":1e20})"}) {
    const auto parsed = ParseRequestLine(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // The largest representable values still parse (range checks against
  // the graph come later, in the engine).
  auto widest = ParseRequestLine(
      R"({"source":4294967295,"sink":0,"query_id":18446744073709549568})");
  ASSERT_TRUE(widest.ok()) << widest.status();
  EXPECT_EQ(widest->sources, std::vector<NodeId>({4294967295u}));
  EXPECT_EQ(widest->query_id, 18446744073709549568u);
  // Out-of-range trace capacities are refused the same way.
  for (const char* line :
       {R"({"trace":{"enable":true,"events_per_thread":1e30}})",
        R"({"trace":{"enable":true,"events_per_thread":0}})"}) {
    auto json = ParseJson(line);
    ASSERT_TRUE(json.ok());
    const auto admin = ParseAdminRequest(*json);
    ASSERT_FALSE(admin.ok()) << line;
    EXPECT_EQ(admin.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(Protocol, SerializesResultsAndErrors) {
  QueryRequest request = FlowQuery(0, 3);
  request.id = "q9";
  QueryResult result;
  result.generation = 4;
  result.total_rows = 100;
  result.effective_rows = 60;
  SinkEstimate est;
  est.sink = 3;
  est.value = 0.25;
  est.diagnostics.mcse = 0.01;
  est.diagnostics.ess = 400.0;
  est.diagnostics.rhat = 1.001;
  result.estimates.push_back(est);
  const std::string line = SerializeResult(request, result);
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("id")->AsString(), "q9");
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(parsed->Find("effective_rows")->AsNumber(), 60.0);
  const JsonValue& entry = parsed->Find("estimates")->AsArray().at(0);
  EXPECT_DOUBLE_EQ(entry.Find("value")->AsNumber(), 0.25);
  EXPECT_DOUBLE_EQ(entry.Find("mcse")->AsNumber(), 0.01);

  QueryResult failed;
  failed.status = Status::FailedPrecondition("too few rows");
  const std::string error_line = SerializeResult(request, failed);
  auto error = ParseJson(error_line);
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->Find("ok")->AsBool());
  EXPECT_EQ(error->Find("error")->Find("code")->AsString(),
            "failed-precondition");

  auto parse_error = ParseJson(SerializeParseError(
      Status::ParseError("bad line")));
  ASSERT_TRUE(parse_error.ok());
  EXPECT_TRUE(parse_error->Find("id")->is_null());

  // A line that parses but fails validation keeps its string id; a
  // missing or non-string id stays null.
  const std::pair<const char*, const char*> echoes[] = {
      {R"({"id":"x","source":4294967301,"sink":5})", "x"},
      {R"({"id":"bad","topk":0})", "bad"},
      {R"({"id":"adm","trace":{"enable":"yes"}})", "adm"},
      {R"({"source":4294967301,"sink":5})", nullptr},
      {R"({"id":7,"topk":0})", nullptr},
      {R"([1,2])", nullptr}};
  for (const auto& [text, id] : echoes) {
    auto json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    auto echoed = ParseJson(
        SerializeParseError(Status::InvalidArgument("no"), &*json));
    ASSERT_TRUE(echoed.ok()) << text;
    EXPECT_FALSE(echoed->Find("ok")->AsBool()) << text;
    if (id == nullptr) {
      EXPECT_TRUE(echoed->Find("id")->is_null()) << text;
    } else {
      EXPECT_EQ(echoed->Find("id")->AsString(), id) << text;
    }
  }
}

TEST(Protocol, TopkRequestsParseWithAllFields) {
  auto json = ParseJson(
      R"({"id":"m1","topk":3,"candidates":[0,1,2],"community":[5,6],)"
      R"("given":"0>1","query_id":9})");
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(IsTopkRequest(*json));
  auto query = ParseJson(R"({"id":"q","source":0,"sink":1})");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(IsTopkRequest(*query));

  auto request = ParseTopkRequest(*json);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->id, "m1");
  EXPECT_EQ(request->k, 3u);
  EXPECT_EQ(request->candidates, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(request->community, (std::vector<NodeId>{5, 6}));
  ASSERT_EQ(request->given.size(), 1u);
  EXPECT_TRUE(request->query_id_provided);
  EXPECT_EQ(request->query_id, 9u);

  for (const char* bad :
       {R"({"topk":0})", R"({"topk":-2})", R"({"topk":1.5})",
        R"({"topk":"three"})", R"({"topk":2,"candidates":[-1]})",
        R"({"topk":2,"community":0})", R"({"topk":2,"given":"x>y"})",
        R"({"id":"y","topk":1,"candidates":[4294967313]})",
        R"({"topk":2,"community":[4294967296]})", R"({"topk":1e20})",
        R"({"topk":2,"query_id":-1})"}) {
    auto line = ParseJson(bad);
    ASSERT_TRUE(line.ok());
    EXPECT_TRUE(IsTopkRequest(*line)) << bad;
    const auto parsed = ParseTopkRequest(*line);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(Protocol, TopkSerializersEchoIdAndProvenance) {
  TopkRequest request;
  request.id = "m1";
  request.query_id = 9;
  request.query_id_provided = true;
  seedmax::SeedMaxResult result;
  result.picks = {{4, 120, 3.5, 0.10}, {2, 60, 5.0, 0.12}};
  result.spread = 5.0;
  result.mcse = 0.12;
  result.evaluations = 7;
  result.prune_hits = 1;
  result.generation = 2;
  result.model_epoch = 1;
  result.num_sketches = 640;
  result.universe = 10;
  result.total_rows = 64;
  result.effective_rows = 64;

  auto line = ParseJson(SerializeTopkResult(request, result));
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->Find("id")->AsString(), "m1");
  EXPECT_TRUE(line->Find("ok")->AsBool());
  EXPECT_EQ(line->Find("kind")->AsString(), "topk");
  EXPECT_DOUBLE_EQ(line->Find("query_id")->AsNumber(), 9.0);
  EXPECT_DOUBLE_EQ(line->Find("generation")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(line->Find("sketches")->AsNumber(), 640.0);
  EXPECT_DOUBLE_EQ(line->Find("universe")->AsNumber(), 10.0);
  EXPECT_DOUBLE_EQ(line->Find("prune_hits")->AsNumber(), 1.0);
  const auto& seeds = line->Find("seeds")->AsArray();
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(seeds[0].Find("node")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(seeds[0].Find("marginal_coverage")->AsNumber(), 120.0);
  EXPECT_DOUBLE_EQ(seeds[1].Find("spread")->AsNumber(), 5.0);
  EXPECT_DOUBLE_EQ(line->Find("spread")->AsNumber(), 5.0);

  // A mint-stamped (not client-provided) id is never echoed.
  request.query_id_provided = false;
  auto unstamped = ParseJson(SerializeTopkResult(request, result));
  ASSERT_TRUE(unstamped.ok());
  EXPECT_EQ(unstamped->Find("query_id"), nullptr);

  request.query_id_provided = true;
  auto error = ParseJson(SerializeTopkError(
      request, Status::FailedPrecondition("below the conditional floor")));
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->Find("ok")->AsBool());
  EXPECT_EQ(error->Find("error")->Find("code")->AsString(),
            "failed-precondition");
  EXPECT_DOUBLE_EQ(error->Find("query_id")->AsNumber(), 9.0);
}

// ----------------------------------------------------------------- server

/// Runs one ServeFd conversation over pipes: writes `input`, closes, and
/// returns everything the server wrote back.
std::string RoundTrip(Server& server, const std::string& input) {
  int in_pipe[2];
  int out_pipe[2];
  EXPECT_EQ(pipe(in_pipe), 0);
  EXPECT_EQ(pipe(out_pipe), 0);
  EXPECT_EQ(write(in_pipe[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  close(in_pipe[1]);
  const Status status = server.ServeFd(in_pipe[0], out_pipe[1]);
  EXPECT_TRUE(status.ok()) << status;
  close(in_pipe[0]);
  close(out_pipe[1]);
  std::string output;
  char chunk[4096];
  ssize_t got;
  while ((got = read(out_pipe[0], chunk, sizeof(chunk))) > 0) {
    output.append(chunk, static_cast<std::size_t>(got));
  }
  close(out_pipe[0]);
  return output;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

Server MakeServer(const PointIcm& model, ServerOptions options = {}) {
  auto bank = SampleBank::Create(model, FastBank(300), 14);
  EXPECT_TRUE(bank.ok());
  auto server = Server::Create(std::move(bank).ValueOrDie(), options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(server).ValueOrDie();
}

TEST(Server, ServesBatchesInOrderWithPerLineErrors) {
  const PointIcm model = SmallRandomModel(41, 10, 24);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"a\",\"source\":0,\"sink\":5}\n"
      "this is not json\n"
      "{\"id\":\"b\",\"sources\":[0,1],\"sinks\":[5,7]}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 3u);

  auto first = ParseJson(lines[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("id")->AsString(), "a");
  EXPECT_TRUE(first->Find("ok")->AsBool());
  EXPECT_EQ(first->Find("generation")->AsNumber(), 1.0);

  auto second = ParseJson(lines[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->Find("ok")->AsBool());
  EXPECT_TRUE(second->Find("id")->is_null());

  auto third = ParseJson(lines[2]);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->Find("id")->AsString(), "b");
  EXPECT_EQ(third->Find("estimates")->AsArray().size(), 2u);
}

TEST(Server, ErrorLinesEchoTheirStringId) {
  // Lines that parse as JSON but fail validation — a query, a topk and an
  // admin verb — answer with the id they carried, so a pipelining client
  // can still correlate them; lines without a string id answer null.
  const PointIcm model = SmallRandomModel(43, 10, 24);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"x\",\"source\":4294967301,\"sink\":5}\n"
      "{\"id\":\"bad\",\"topk\":0}\n"
      "{\"id\":\"adm\",\"trace\":{\"enable\":\"yes\"}}\n"
      "{\"id\":\"ing\",\"ingest\":5}\n"
      "{\"id\":9,\"source\":0,\"sink\":99999999999}\n"
      "not json\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 6u);
  const char* ids[] = {"x", "bad", "adm", "ing", nullptr, nullptr};
  for (std::size_t j = 0; j < lines.size(); ++j) {
    auto line = ParseJson(lines[j]);
    ASSERT_TRUE(line.ok()) << lines[j];
    EXPECT_FALSE(line->Find("ok")->AsBool()) << lines[j];
    EXPECT_EQ(line->Find("error")->Find("code")->AsString(),
              j == 5 ? "parse-error" : "invalid-argument")
        << lines[j];
    if (ids[j] == nullptr) {
      EXPECT_TRUE(line->Find("id")->is_null()) << lines[j];
    } else {
      EXPECT_EQ(line->Find("id")->AsString(), ids[j]) << lines[j];
    }
  }
}

/// One connection to the daemon at `socket_path`, one flow query; returns
/// the response line.
std::string AskOverSocket(const std::string& socket_path,
                          const std::string& id) {
  const int client = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(client, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      connect(client, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request =
      "{\"id\":\"" + id + "\",\"source\":0,\"sink\":5}\n";
  EXPECT_EQ(write(client, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  shutdown(client, SHUT_WR);
  std::string output;
  char chunk[4096];
  ssize_t got;
  while ((got = read(client, chunk, sizeof(chunk))) > 0) {
    output.append(chunk, static_cast<std::size_t>(got));
  }
  close(client);
  return SplitLines(output).at(0);
}

/// Lines of /proc/self/maps: one per mapping of this process.
std::size_t CountMappings() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Server, AnswersOverUnixSocket) {
  // Connections are answered while the background refresher publishes new
  // generations; a connection opened after a refresh answers from it, and
  // Stop() quiesces the listener and the refresher (the TSan job runs
  // this suite).
  const PointIcm model = SmallRandomModel(43, 10, 24);
  ServerOptions options;
  options.socket_path = testing::TempDir() + "/infoflow_serve_test.sock";
  options.refresh_interval_ms = 1.0;
  Server server = MakeServer(model, options);
  ASSERT_TRUE(server.Start().ok());

  const auto ask = [&](const std::string& id) {
    return AskOverSocket(options.socket_path, id);
  };
  auto first = ParseJson(ask("s1"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("id")->AsString(), "s1");
  EXPECT_TRUE(first->Find("ok")->AsBool());
  // Wait (bounded) for the refresher to publish past what s1 saw.
  const double seen = first->Find("generation")->AsNumber();
  for (int i = 0; i < 5000; ++i) {
    if (static_cast<double>(server.bank().Acquire()->id()) > seen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto second = ParseJson(ask("s2"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->Find("ok")->AsBool());
  EXPECT_GT(second->Find("generation")->AsNumber(), seen);
  server.Stop();
}

TEST(Server, ReapsFinishedConnectionThreads) {
  // A finished connection's thread is joined at the next accept, so its
  // stack stops being mapped: 200 one-query connections in turn must leave
  // the mapping count nearly flat (unreaped, each added about two).
  const PointIcm model = SmallRandomModel(47, 10, 24);
  ServerOptions options;
  options.socket_path = testing::TempDir() + "/infoflow_reap_test.sock";
  Server server = MakeServer(model, options);
  ASSERT_TRUE(server.Start().ok());
  // Warm-up connections settle the allocator's per-thread arenas.
  for (int i = 0; i < 5; ++i) AskOverSocket(options.socket_path, "warm");
  const std::size_t before = CountMappings();
  for (int i = 0; i < 200; ++i) {
    auto response = ParseJson(AskOverSocket(options.socket_path, "c"));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->Find("ok")->AsBool()) << i;
  }
  const std::size_t after = CountMappings();
  EXPECT_LT(after, before + 50) << before << " -> " << after;
  server.Stop();
}

TEST(Server, ValidatesOptions) {
  ServerOptions bad;
  bad.max_batch = 0;
  EXPECT_FALSE(bad.Validate().ok());
  ServerOptions negative;
  negative.refresh_interval_ms = -1.0;
  EXPECT_FALSE(negative.Validate().ok());
  EXPECT_TRUE(ServerOptions{}.Validate().ok());
}

TEST(Server, ValidatesObservabilityOptions) {
  ServerOptions stats_without_path;
  stats_without_path.stats_interval_ms = 100.0;
  EXPECT_FALSE(stats_without_path.Validate().ok());
  stats_without_path.stats_path = "/tmp/stats.json";
  EXPECT_TRUE(stats_without_path.Validate().ok());

  ServerOptions negative_stats;
  negative_stats.stats_interval_ms = -1.0;
  EXPECT_FALSE(negative_stats.Validate().ok());

  ServerOptions slow_without_path;
  slow_without_path.slow_query_ms = 5.0;
  EXPECT_FALSE(slow_without_path.Validate().ok());
  slow_without_path.slow_query_path = "/tmp/slow.ndjson";
  EXPECT_TRUE(slow_without_path.Validate().ok());

  ServerOptions negative_slow;
  negative_slow.slow_query_ms = -1.0;
  EXPECT_FALSE(negative_slow.Validate().ok());
}

TEST(Server, AdminStatsVerbAnswersInlineWithPrometheusText) {
  const PointIcm model = SmallRandomModel(47, 10, 24);
  // One line per batch: the admin verb must observe the query before it.
  ServerOptions options;
  options.max_batch = 1;
  Server server = MakeServer(model, options);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"q1\",\"source\":0,\"sink\":5}\n"
      "{\"id\":\"st\",\"stats\":true}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 2u);

  auto stats = ParseJson(lines[1]);
  ASSERT_TRUE(stats.ok()) << lines[1];
  EXPECT_EQ(stats->Find("id")->AsString(), "st");
  EXPECT_TRUE(stats->Find("ok")->AsBool());
  const JsonValue* snapshot = stats->Find("stats");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_NE(snapshot->Find("counters"), nullptr);
  EXPECT_NE(snapshot->Find("gauges"), nullptr);
  EXPECT_NE(snapshot->Find("histograms"), nullptr);

  const JsonValue* prometheus = stats->Find("prometheus");
  ASSERT_NE(prometheus, nullptr);
  const std::string exposition = prometheus->AsString();
  if (obs::MetricsEnabled()) {
    // The query answered above must already be visible in the scrape,
    // including the per-kind latency quantile gauges.
    EXPECT_NE(exposition.find("# TYPE"), std::string::npos);
    EXPECT_NE(exposition.find("serve_query_latency_ms_flow_p50"),
              std::string::npos);
    EXPECT_NE(exposition.find("serve_query_latency_ms_flow_p99"),
              std::string::npos);
    // Every non-comment line is `name[{labels}] value` with a finite value.
    for (const std::string& line : SplitLines(exposition)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      char* end = nullptr;
      const double value = std::strtod(line.c_str() + space + 1, &end);
      EXPECT_EQ(*end, '\0') << line;
      EXPECT_TRUE(std::isfinite(value)) << line;
    }
  } else {
    EXPECT_EQ(exposition, "");
  }
}

TEST(Server, AdminHealthVerbReportsBankAndIngestState) {
  const PointIcm model = SmallRandomModel(48, 10, 24);
  Server server = MakeServer(model);
  const std::string output =
      RoundTrip(server, "{\"id\":\"he\",\"health\":true}\n");
  auto health_line = ParseJson(SplitLines(output).at(0));
  ASSERT_TRUE(health_line.ok()) << output;
  EXPECT_EQ(health_line->Find("id")->AsString(), "he");
  EXPECT_TRUE(health_line->Find("ok")->AsBool());
  const JsonValue* health = health_line->Find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->Find("role")->AsString(), "server");
  EXPECT_GE(health->Find("generation")->AsNumber(), 1.0);
  EXPECT_GE(health->Find("generation_age_s")->AsNumber(), 0.0);
  EXPECT_GE(health->Find("model_epoch")->AsNumber(), 1.0);
  EXPECT_GT(health->Find("rows")->AsNumber(), 0.0);
  const JsonValue* ingest = health->Find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_FALSE(ingest->Find("enabled")->AsBool());
}

TEST(Server, AdminTraceVerbsArmExportAndDisarm) {
  const PointIcm model = SmallRandomModel(49, 10, 24);
  // One line per batch so arm → query → export happen in sequence rather
  // than being folded into a single greedy batch.
  ServerOptions options;
  options.max_batch = 1;
  Server server = MakeServer(model, options);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"t1\",\"trace\":{\"enable\":true,\"events_per_thread\":64}}\n"
      "{\"id\":\"q1\",\"source\":0,\"sink\":5}\n"
      "{\"id\":\"t2\",\"trace\":{\"export\":true}}\n"
      "{\"id\":\"t3\",\"trace\":{\"enable\":false}}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 4u);

  auto enabled = ParseJson(lines[0]);
  ASSERT_TRUE(enabled.ok());
  EXPECT_EQ(enabled->Find("trace")->AsString(), "enabled");

  auto exported = ParseJson(lines[2]);
  ASSERT_TRUE(exported.ok());
  const JsonValue* trace = exported->Find("trace");
  ASSERT_NE(trace, nullptr);
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  if (obs::MetricsEnabled()) {
    // The query answered between arm and export left spans in the ring,
    // all tagged with the same server-minted query id.
    EXPECT_FALSE(events->AsArray().empty());
    bool saw_query_id = false;
    for (const JsonValue& event : events->AsArray()) {
      const JsonValue* args = event.Find("args");
      if (args != nullptr && args->Find("query_id") != nullptr) {
        saw_query_id = true;
        EXPECT_GE(args->Find("query_id")->AsNumber(), 1.0);
      }
    }
    EXPECT_TRUE(saw_query_id);
  } else {
    EXPECT_TRUE(events->AsArray().empty());
  }

  auto disabled = ParseJson(lines[3]);
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(disabled->Find("trace")->AsString(), "disabled");
}

TEST(Server, EchoesQueryIdOnlyWhenTheClientSentOne) {
  const PointIcm model = SmallRandomModel(50, 10, 24);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"a\",\"source\":0,\"sink\":5,\"query_id\":77}\n"
      "{\"id\":\"b\",\"source\":0,\"sink\":5}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 2u);

  auto with_id = ParseJson(lines[0]);
  ASSERT_TRUE(with_id.ok());
  ASSERT_NE(with_id->Find("query_id"), nullptr);
  EXPECT_EQ(with_id->Find("query_id")->AsNumber(), 77.0);

  // Server-minted ids are internal (trace + slow log only): echoing them
  // would make responses depend on process-global mint state and break
  // byte-identical replays.
  auto without_id = ParseJson(lines[1]);
  ASSERT_TRUE(without_id.ok());
  EXPECT_TRUE(without_id->Find("ok")->AsBool());
  EXPECT_EQ(without_id->Find("query_id"), nullptr);
}

TEST(Server, TopkVerbMatchesDirectSelectionOverTheSameBank) {
  const PointIcm model = SmallRandomModel(53, 12, 30);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"m1\",\"topk\":2,\"query_id\":31}\n"
      "{\"id\":\"m2\",\"topk\":2,\"community\":[3,4,5]}\n"
      "{\"id\":\"bad\",\"topk\":0}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 3u);

  auto m1 = ParseJson(lines[0]);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->Find("id")->AsString(), "m1");
  EXPECT_TRUE(m1->Find("ok")->AsBool());
  EXPECT_EQ(m1->Find("kind")->AsString(), "topk");
  EXPECT_DOUBLE_EQ(m1->Find("query_id")->AsNumber(), 31.0);
  const auto& picks = m1->Find("seeds")->AsArray();
  ASSERT_EQ(picks.size(), 2u);

  // The served answer must match a direct selection over the same bank
  // generation exactly — same seeds, same spread estimate.
  auto generation = server.bank().Acquire();
  auto sketches = server.rr_index()->Acquire(generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();
  seedmax::SeedMaxOptions options;
  options.num_seeds = 2;
  auto direct = seedmax::SelectSeeds(**sketches, options);
  ASSERT_TRUE(direct.ok()) << direct.status();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(picks[i].Find("node")->AsNumber(),
                     static_cast<double>(direct->picks[i].node));
    EXPECT_DOUBLE_EQ(picks[i].Find("spread")->AsNumber(),
                     direct->picks[i].spread);
  }
  EXPECT_DOUBLE_EQ(m1->Find("spread")->AsNumber(), direct->spread);
  EXPECT_DOUBLE_EQ(m1->Find("sketches")->AsNumber(),
                   static_cast<double>(direct->num_sketches));

  // Community-constrained request: universe shrinks to the community.
  auto m2 = ParseJson(lines[1]);
  ASSERT_TRUE(m2.ok());
  EXPECT_TRUE(m2->Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(m2->Find("universe")->AsNumber(), 3.0);
  EXPECT_LE(m2->Find("spread")->AsNumber(), 3.0 + 1e-12);

  // Malformed k: rejected on the parse path, keeping its id.
  auto bad = ParseJson(lines[2]);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->Find("ok")->AsBool());
  EXPECT_EQ(bad->Find("id")->AsString(), "bad");
  EXPECT_EQ(bad->Find("error")->Find("code")->AsString(),
            "invalid-argument");
}

TEST(Server, SlowQueryLogAppendsStructuredRecords) {
  const PointIcm model = SmallRandomModel(51, 10, 24);
  const std::string log_path =
      testing::TempDir() + "/infoflow_slow_query_test.ndjson";
  std::remove(log_path.c_str());
  ServerOptions options;
  options.slow_query_ms = 1e-6;  // Every query qualifies as slow.
  options.slow_query_path = log_path;
  Server server = MakeServer(model, options);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"a\",\"source\":0,\"sink\":5,\"query_id\":123}\n"
      "{\"id\":\"b\",\"sources\":[0,1],\"sinks\":[5,7]}\n");
  ASSERT_EQ(SplitLines(output).size(), 2u);

  std::ifstream log(log_path);
  ASSERT_TRUE(log.good()) << log_path;
  std::vector<std::string> records;
  std::string line;
  while (std::getline(log, line)) records.push_back(line);
  ASSERT_EQ(records.size(), 2u);

  auto first = ParseJson(records[0]);
  ASSERT_TRUE(first.ok()) << records[0];
  EXPECT_EQ(first->Find("id")->AsString(), "a");
  EXPECT_EQ(first->Find("query_id")->AsNumber(), 123.0);
  EXPECT_EQ(first->Find("kind")->AsString(), "flow");
  EXPECT_TRUE(first->Find("ok")->AsBool());
  EXPECT_GE(first->Find("latency_ms")->AsNumber(), 0.0);
  EXPECT_GE(first->Find("ts_ms")->AsNumber(), 1.0);
  EXPECT_GE(first->Find("generation")->AsNumber(), 1.0);
  EXPECT_GE(first->Find("model_epoch")->AsNumber(), 1.0);
  EXPECT_GT(first->Find("total_rows")->AsNumber(), 0.0);
  EXPECT_GT(first->Find("effective_rows")->AsNumber(), 0.0);
  ASSERT_NE(first->Find("rhat_max"), nullptr);

  // The second request arrived without a query_id: the mint stamps one,
  // and the slow log records it even though the response does not.
  auto second = ParseJson(records[1]);
  ASSERT_TRUE(second.ok()) << records[1];
  EXPECT_EQ(second->Find("id")->AsString(), "b");
  EXPECT_GE(second->Find("query_id")->AsNumber(), 1.0);

  std::remove(log_path.c_str());
}

TEST(Server, StopWritesTheStatsSnapshot) {
  const PointIcm model = SmallRandomModel(52, 10, 24);
  const std::string stats_path =
      testing::TempDir() + "/infoflow_stats_test.json";
  std::remove(stats_path.c_str());
  ServerOptions options;
  options.stats_path = stats_path;
  Server server = MakeServer(model, options);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();

  std::ifstream stats_file(stats_path);
  ASSERT_TRUE(stats_file.good()) << stats_path;
  std::string contents((std::istreambuf_iterator<char>(stats_file)),
                       std::istreambuf_iterator<char>());
  auto snapshot = ParseJson(contents);
  ASSERT_TRUE(snapshot.ok()) << contents;
  EXPECT_NE(snapshot->Find("counters"), nullptr);
  EXPECT_NE(snapshot->Find("gauges"), nullptr);
  EXPECT_NE(snapshot->Find("histograms"), nullptr);
  std::remove(stats_path.c_str());
}

}  // namespace
}  // namespace infoflow::serve
