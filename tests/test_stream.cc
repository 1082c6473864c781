/// Tests for the streaming subsystem: wire-line parsing, the bounded
/// evidence queue's overflow policies, the EvidenceStream fd pump, the
/// OnlineTrainer's exact batch equivalence (the headline property: decay=1
/// and window=∞ reproduce the batch trainers bit for bit on shuffled
/// evidence), decay/window forgetting semantics, epoch publication, the
/// StreamIngestor, and the serve daemon's ingest verb + drift-triggered
/// bank rebuild.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "learn/attributed.h"
#include "learn/evidence_io.h"
#include "learn/model_trainer.h"
#include "learn/summary.h"
#include "serve/protocol.h"
#include "serve/sample_bank.h"
#include "serve/server.h"
#include "stream/evidence_stream.h"
#include "stream/ingestor.h"
#include "stream/model_epoch.h"
#include "stream/online_trainer.h"
#include "util/json.h"

namespace infoflow::stream {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

// A small two-level graph: 0 -> {1, 2}, {1, 2} -> 3.
std::shared_ptr<const DirectedGraph> Diamond() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  b.AddEdge(1, 3).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  return std::make_shared<const DirectedGraph>(std::move(b).Build());
}

std::shared_ptr<const DirectedGraph> RandomGraph(std::uint64_t seed,
                                                 NodeId nodes, EdgeId edges) {
  Rng rng(seed);
  return Share(UniformRandomGraph(nodes, edges, rng));
}

PointIcm RandomModel(const std::shared_ptr<const DirectedGraph>& g,
                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.9);
  return PointIcm(g, probs);
}

/// Simulates cascades into attributed objects (nodes + fired edges).
AttributedEvidence SimulateAttributed(const PointIcm& truth,
                                      std::size_t objects, Rng& rng) {
  AttributedEvidence ev;
  for (std::size_t o = 0; o < objects; ++o) {
    const NodeId src = static_cast<NodeId>(
        rng.NextBounded(truth.graph().num_nodes()));
    const ActiveState s = truth.SampleCascade({src}, rng);
    AttributedObject obj;
    obj.sources = s.sources;
    obj.active_nodes = s.active_nodes;
    for (EdgeId e = 0; e < s.edge_active.size(); ++e) {
      if (s.edge_active[e]) obj.active_edges.push_back(e);
    }
    ev.objects.push_back(std::move(obj));
  }
  return ev;
}

/// Simulates cascades into activation traces (BFS depth as time).
UnattributedEvidence SimulateTraces(const PointIcm& truth,
                                    std::size_t objects, Rng& rng) {
  UnattributedEvidence ev;
  for (std::size_t o = 0; o < objects; ++o) {
    const NodeId src = static_cast<NodeId>(
        rng.NextBounded(truth.graph().num_nodes()));
    const ActiveState s = truth.SampleCascade({src}, rng);
    ObjectTrace trace;
    double time = 0.0;
    for (NodeId v : s.active_nodes) {
      trace.activations.push_back({v, time});
      time += 1.0;
    }
    ev.traces.push_back(std::move(trace));
  }
  return ev;
}

// ------------------------------------------------------------ wire parsing

TEST(ParseEvidenceLine, SniffsAttributedByPipe) {
  auto g = Diamond();
  auto rec = ParseEvidenceLine("0|0 1|0>1", *g, StreamFormat::kAuto);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_TRUE(std::holds_alternative<AttributedObject>(*rec));
  const auto& obj = std::get<AttributedObject>(*rec);
  EXPECT_EQ(obj.sources, std::vector<NodeId>({0}));
  EXPECT_EQ(obj.active_nodes, std::vector<NodeId>({0, 1}));
  EXPECT_EQ(obj.active_edges, std::vector<EdgeId>({g->FindEdge(0, 1)}));
}

TEST(ParseEvidenceLine, SniffsTraceWithoutPipe) {
  auto g = Diamond();
  auto rec = ParseEvidenceLine("0:0 2:1.5", *g, StreamFormat::kAuto);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_TRUE(std::holds_alternative<ObjectTrace>(*rec));
  const auto& trace = std::get<ObjectTrace>(*rec);
  ASSERT_EQ(trace.activations.size(), 2u);
  EXPECT_EQ(trace.activations[1].node, 2u);
  EXPECT_DOUBLE_EQ(trace.activations[1].time, 1.5);
}

TEST(ParseEvidenceLine, ForcedFormatOverridesSniffing) {
  auto g = Diamond();
  // "0:0" has no pipe but the forced attributed format must reject it.
  EXPECT_FALSE(ParseEvidenceLine("0:0", *g, StreamFormat::kAttributed).ok());
}

TEST(ParseEvidenceLine, JsonEnvelopes) {
  auto g = Diamond();
  auto att = ParseEvidenceLine(R"({"attributed":"0|0 1|0>1"})", *g,
                               StreamFormat::kAuto);
  ASSERT_TRUE(att.ok()) << att.status();
  EXPECT_TRUE(std::holds_alternative<AttributedObject>(*att));
  auto tr =
      ParseEvidenceLine(R"({"trace":"0:0 3:2"})", *g, StreamFormat::kAuto);
  ASSERT_TRUE(tr.ok()) << tr.status();
  EXPECT_TRUE(std::holds_alternative<ObjectTrace>(*tr));
}

TEST(ParseEvidenceLine, Rejections) {
  auto g = Diamond();
  EXPECT_FALSE(ParseEvidenceLine("", *g, StreamFormat::kAuto).ok());
  EXPECT_FALSE(ParseEvidenceLine("   ", *g, StreamFormat::kAuto).ok());
  EXPECT_FALSE(ParseEvidenceLine("{\"x\":1}", *g, StreamFormat::kAuto).ok());
  EXPECT_FALSE(ParseEvidenceLine("{not json", *g, StreamFormat::kAuto).ok());
  EXPECT_FALSE(
      ParseEvidenceLine(R"({"trace":42})", *g, StreamFormat::kAuto).ok());
  // An edge that is not in the graph.
  EXPECT_FALSE(ParseEvidenceLine("0|0 3|0>3", *g, StreamFormat::kAuto).ok());
}

TEST(StreamEnums, NamesRoundTrip) {
  for (auto f : {StreamFormat::kAuto, StreamFormat::kAttributed,
                 StreamFormat::kTraces}) {
    auto parsed = ParseStreamFormat(StreamFormatName(f));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, f);
  }
  for (auto p : {QueueOverflowPolicy::kPark, QueueOverflowPolicy::kDropNewest,
                 QueueOverflowPolicy::kDropOldest}) {
    auto parsed = ParseQueueOverflowPolicy(QueueOverflowPolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(ParseStreamFormat("csv").ok());
  EXPECT_FALSE(ParseQueueOverflowPolicy("block").ok());
}

// -------------------------------------------------------------- the queue

EvidenceRecord TraceRecord(double t) {
  ObjectTrace trace;
  trace.activations.push_back({0, t});
  return trace;
}

TEST(EvidenceQueue, DropNewestRejectsWhenFull) {
  EvidenceQueue q(2, QueueOverflowPolicy::kDropNewest);
  EXPECT_TRUE(q.Push(TraceRecord(0)));
  EXPECT_TRUE(q.Push(TraceRecord(1)));
  EXPECT_FALSE(q.Push(TraceRecord(2)));
  EXPECT_EQ(q.Depth(), 2u);
  EXPECT_EQ(q.Dropped(), 1u);
  EvidenceRecord out;
  ASSERT_TRUE(q.Pop(out));
  EXPECT_DOUBLE_EQ(std::get<ObjectTrace>(out).activations[0].time, 0.0);
}

TEST(EvidenceQueue, DropOldestEvictsHead) {
  EvidenceQueue q(2, QueueOverflowPolicy::kDropOldest);
  EXPECT_TRUE(q.Push(TraceRecord(0)));
  EXPECT_TRUE(q.Push(TraceRecord(1)));
  EXPECT_TRUE(q.Push(TraceRecord(2)));
  EXPECT_EQ(q.Depth(), 2u);
  EXPECT_EQ(q.Dropped(), 1u);
  EvidenceRecord out;
  ASSERT_TRUE(q.Pop(out));
  EXPECT_DOUBLE_EQ(std::get<ObjectTrace>(out).activations[0].time, 1.0);
}

TEST(EvidenceQueue, ParkBlocksUntilConsumed) {
  EvidenceQueue q(1, QueueOverflowPolicy::kPark);
  EXPECT_TRUE(q.Push(TraceRecord(0)));
  std::thread producer([&q] {
    // Parks until the main thread pops, then succeeds.
    EXPECT_TRUE(q.Push(TraceRecord(1)));
  });
  EvidenceRecord out;
  ASSERT_TRUE(q.Pop(out));
  EXPECT_DOUBLE_EQ(std::get<ObjectTrace>(out).activations[0].time, 0.0);
  ASSERT_TRUE(q.Pop(out));
  EXPECT_DOUBLE_EQ(std::get<ObjectTrace>(out).activations[0].time, 1.0);
  producer.join();
  EXPECT_EQ(q.Dropped(), 0u);
}

TEST(EvidenceQueue, CloseDrainsThenStops) {
  EvidenceQueue q(4, QueueOverflowPolicy::kPark);
  EXPECT_TRUE(q.Push(TraceRecord(0)));
  q.Close();
  EXPECT_FALSE(q.Push(TraceRecord(1)));  // no admits after close
  EvidenceRecord out;
  EXPECT_TRUE(q.Pop(out));  // backlog still drains
  EXPECT_FALSE(q.Pop(out));
}

// -------------------------------------------------------- the fd reader

TEST(EvidenceStream, PumpsPipeIntoQueue) {
  auto g = Diamond();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string payload = "0|0 1|0>1\n\nbad line\n0:0 3:1\n";
  ASSERT_EQ(write(fds[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  close(fds[1]);
  auto queue = std::make_shared<EvidenceQueue>(16, QueueOverflowPolicy::kPark);
  EvidenceStream stream(fds[0], StreamFormat::kAuto, g, queue);
  EvidenceRecord out;
  ASSERT_TRUE(queue->Pop(out));
  EXPECT_TRUE(std::holds_alternative<AttributedObject>(out));
  ASSERT_TRUE(queue->Pop(out));
  EXPECT_TRUE(std::holds_alternative<ObjectTrace>(out));
  EXPECT_FALSE(queue->Pop(out));  // EOF closed the queue
  stream.Stop();
  EXPECT_EQ(stream.records_read(), 2u);
  EXPECT_EQ(stream.parse_errors(), 1u);  // "bad line"; blanks are skipped
}

// ------------------------------------------- online/batch exact equivalence

TEST(OnlineTrainer, AttributedMatchesBatchBitForBitOnShuffledEvidence) {
  auto g = RandomGraph(11, 40, 160);
  const PointIcm truth = RandomModel(g, 12);
  Rng sim_rng(13);
  AttributedEvidence ev = SimulateAttributed(truth, 200, sim_rng);

  auto batch = TrainBetaIcmFromAttributed(g, ev);
  ASSERT_TRUE(batch.ok()) << batch.status();

  // Online, on a shuffled copy: counting is order-independent, so the
  // defaults (decay=1, window=∞) must reproduce the batch counts exactly.
  Rng shuffle_rng(14);
  std::shuffle(ev.objects.begin(), ev.objects.end(), shuffle_rng);
  OnlineTrainer online(g, {});
  for (const AttributedObject& obj : ev.objects) {
    ASSERT_TRUE(online.AbsorbAttributed(obj).ok());
  }
  const BetaIcm model = online.AttributedModel();
  const PointIcm batch_point = batch->ExpectedIcm();
  const PointIcm online_point = model.ExpectedIcm();
  for (EdgeId e = 0; e < g->num_edges(); ++e) {
    EXPECT_EQ(model.alpha(e), batch->alpha(e)) << "edge " << e;
    EXPECT_EQ(model.beta(e), batch->beta(e)) << "edge " << e;
    EXPECT_EQ(online_point.prob(e), batch_point.prob(e)) << "edge " << e;
  }
}

TEST(OnlineTrainer, SummariesMatchBatchBuilder) {
  auto g = RandomGraph(21, 24, 96);
  const PointIcm truth = RandomModel(g, 22);
  Rng sim_rng(23);
  UnattributedEvidence ev = SimulateTraces(truth, 150, sim_rng);

  Rng shuffle_rng(24);
  std::shuffle(ev.traces.begin(), ev.traces.end(), shuffle_rng);
  OnlineTrainer online(g, {});
  for (const ObjectTrace& trace : ev.traces) {
    ASSERT_TRUE(online.AbsorbTrace(trace).ok());
  }

  SummaryOptions summary_options;
  for (NodeId sink = 0; sink < g->num_nodes(); ++sink) {
    const SinkSummary batch = BuildSinkSummary(*g, sink, ev, summary_options);
    const SinkSummary online_summary = online.SummaryForSink(sink);
    EXPECT_EQ(online_summary.parents, batch.parents) << "sink " << sink;
    EXPECT_EQ(online_summary.parent_edges, batch.parent_edges);
    EXPECT_EQ(online_summary.unexplained_objects, batch.unexplained_objects)
        << "sink " << sink;
    ASSERT_EQ(online_summary.rows.size(), batch.rows.size())
        << "sink " << sink;
    for (std::size_t r = 0; r < batch.rows.size(); ++r) {
      EXPECT_EQ(online_summary.rows[r].mask, batch.rows[r].mask);
      EXPECT_EQ(online_summary.rows[r].count, batch.rows[r].count);
      EXPECT_EQ(online_summary.rows[r].leaks, batch.rows[r].leaks);
    }
  }
}

TEST(OnlineTrainer, UnattributedFitMatchesBatchBitForBit) {
  auto g = RandomGraph(31, 20, 70);
  const PointIcm truth = RandomModel(g, 32);
  Rng sim_rng(33);
  UnattributedEvidence ev = SimulateTraces(truth, 120, sim_rng);

  for (auto method : {UnattributedMethod::kGoyal, UnattributedMethod::kSaitoEm,
                      UnattributedMethod::kJointBayes}) {
    UnattributedTrainOptions options;
    options.method = method;
    options.joint_bayes.num_samples = 60;
    options.joint_bayes.burn_in = 40;

    Rng batch_rng(77);
    auto batch = TrainUnattributedModel(g, ev, options, batch_rng);
    ASSERT_TRUE(batch.ok()) << batch.status();

    UnattributedEvidence shuffled = ev;
    Rng shuffle_rng(34);
    std::shuffle(shuffled.traces.begin(), shuffled.traces.end(), shuffle_rng);
    OnlineTrainerOptions online_options;
    online_options.unattributed = options;
    OnlineTrainer online(g, online_options);
    for (const ObjectTrace& trace : shuffled.traces) {
      ASSERT_TRUE(online.AbsorbTrace(trace).ok());
    }
    Rng online_rng(77);  // identical seed → identical estimator draws
    auto fitted = online.FitUnattributed(online_rng);
    ASSERT_TRUE(fitted.ok()) << fitted.status();
    ASSERT_EQ(fitted->mean.size(), batch->mean.size());
    for (EdgeId e = 0; e < g->num_edges(); ++e) {
      EXPECT_EQ(fitted->mean[e], batch->mean[e])
          << UnattributedMethodName(method) << " edge " << e;
      EXPECT_EQ(fitted->sd[e], batch->sd[e]);
    }
  }
}

// ------------------------------------------------------ forgetting knobs

TEST(OnlineTrainer, DecayAgesOldEvidenceMonotonically) {
  auto g = Diamond();
  OnlineTrainerOptions options;
  options.decay = 0.5;
  OnlineTrainer trainer(g, options);

  // One object activating edge 0->1, then k objects not touching it: edge
  // 0->1's excess α must shrink as 0.5^k.
  AttributedObject first;
  first.sources = {0};
  first.active_nodes = {0, 1};
  first.active_edges = {g->FindEdge(0, 1)};
  ASSERT_TRUE(trainer.AbsorbAttributed(first).ok());

  AttributedObject other;
  other.sources = {1};
  other.active_nodes = {1, 3};
  other.active_edges = {g->FindEdge(1, 3)};

  double last_excess = trainer.AttributedModel().alpha(g->FindEdge(0, 1)) - 1.0;
  EXPECT_DOUBLE_EQ(last_excess, 1.0);  // fresh: decay applies before absorb
  for (int k = 1; k <= 6; ++k) {
    ASSERT_TRUE(trainer.AbsorbAttributed(other).ok());
    const double excess =
        trainer.AttributedModel().alpha(g->FindEdge(0, 1)) - 1.0;
    EXPECT_NEAR(excess, std::pow(0.5, k), 1e-12);
    EXPECT_LT(excess, last_excess);
    last_excess = excess;
  }
}

TEST(OnlineTrainer, DecayIsRejectedForTraces) {
  auto g = Diamond();
  OnlineTrainerOptions options;
  options.decay = 0.9;
  OnlineTrainer trainer(g, options);
  ObjectTrace trace;
  trace.activations.push_back({0, 0.0});
  const Status status = trainer.AbsorbTrace(trace);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(OnlineTrainerOptions, RejectsBadDecay) {
  OnlineTrainerOptions options;
  options.decay = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.decay = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.decay = -0.3;
  EXPECT_FALSE(options.Validate().ok());
  options.decay = 1.0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OnlineTrainer, WindowEvictsAttributedExactly) {
  auto g = RandomGraph(41, 16, 48);
  const PointIcm truth = RandomModel(g, 42);
  Rng sim_rng(43);
  const AttributedEvidence ev = SimulateAttributed(truth, 10, sim_rng);

  OnlineTrainerOptions options;
  options.window = 4;
  OnlineTrainer online(g, options);
  for (const AttributedObject& obj : ev.objects) {
    ASSERT_TRUE(online.AbsorbAttributed(obj).ok());
  }
  EXPECT_EQ(online.attributed_in_window(), 4u);
  EXPECT_EQ(online.attributed_absorbed(), 10u);

  // Batch over only the last 4 objects must agree exactly.
  AttributedEvidence tail;
  tail.objects.assign(ev.objects.end() - 4, ev.objects.end());
  auto batch = TrainBetaIcmFromAttributed(g, tail);
  ASSERT_TRUE(batch.ok());
  const BetaIcm model = online.AttributedModel();
  for (EdgeId e = 0; e < g->num_edges(); ++e) {
    EXPECT_EQ(model.alpha(e), batch->alpha(e)) << "edge " << e;
    EXPECT_EQ(model.beta(e), batch->beta(e)) << "edge " << e;
  }
}

TEST(OnlineTrainer, WindowEvictsTracesExactly) {
  auto g = RandomGraph(51, 16, 48);
  const PointIcm truth = RandomModel(g, 52);
  Rng sim_rng(53);
  const UnattributedEvidence ev = SimulateTraces(truth, 12, sim_rng);

  OnlineTrainerOptions options;
  options.window = 5;
  OnlineTrainer online(g, options);
  for (const ObjectTrace& trace : ev.traces) {
    ASSERT_TRUE(online.AbsorbTrace(trace).ok());
  }
  EXPECT_EQ(online.traces_in_window(), 5u);

  UnattributedEvidence tail;
  tail.traces.assign(ev.traces.end() - 5, ev.traces.end());
  SummaryOptions summary_options;
  for (NodeId sink = 0; sink < g->num_nodes(); ++sink) {
    const SinkSummary batch = BuildSinkSummary(*g, sink, tail,
                                               summary_options);
    const SinkSummary online_summary = online.SummaryForSink(sink);
    EXPECT_EQ(online_summary.unexplained_objects, batch.unexplained_objects);
    ASSERT_EQ(online_summary.rows.size(), batch.rows.size()) << "sink "
                                                             << sink;
    for (std::size_t r = 0; r < batch.rows.size(); ++r) {
      EXPECT_EQ(online_summary.rows[r].mask, batch.rows[r].mask);
      EXPECT_EQ(online_summary.rows[r].count, batch.rows[r].count);
      EXPECT_EQ(online_summary.rows[r].leaks, batch.rows[r].leaks);
    }
  }
}

TEST(OnlineTrainer, DecayPlusWindowEvictionStaysExact) {
  auto g = Diamond();
  OnlineTrainerOptions options;
  options.decay = 0.5;
  options.window = 2;
  OnlineTrainer trainer(g, options);

  AttributedObject obj;
  obj.sources = {0};
  obj.active_nodes = {0, 1};
  obj.active_edges = {g->FindEdge(0, 1)};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(trainer.AbsorbAttributed(obj).ok());
  }
  // Only the last two absorbs survive, decayed to 1 and 0.5 respectively:
  // α = 1 + 1·1 + 0.5... newest has weight 1 (decay applies before each
  // absorb, so the newest record is always at full weight).
  const double alpha = trainer.AttributedModel().alpha(g->FindEdge(0, 1));
  EXPECT_NEAR(alpha, 1.0 + 1.0 + 0.5, 1e-12);
}

TEST(OnlineTrainer, CurrentPointModelPolicy) {
  auto g = Diamond();
  OnlineTrainer trainer(g, {});
  Rng rng(1);
  EXPECT_EQ(trainer.CurrentPointModel(rng).status().code(),
            StatusCode::kNotFound);

  ObjectTrace trace;
  trace.activations.push_back({0, 0.0});
  trace.activations.push_back({1, 1.0});
  ASSERT_TRUE(trainer.AbsorbTrace(trace).ok());
  auto from_traces = trainer.CurrentPointModel(rng);
  ASSERT_TRUE(from_traces.ok()) << from_traces.status();

  AttributedObject obj;
  obj.sources = {0};
  obj.active_nodes = {0, 1};
  obj.active_edges = {g->FindEdge(0, 1)};
  ASSERT_TRUE(trainer.AbsorbAttributed(obj).ok());
  auto from_attributed = trainer.CurrentPointModel(rng);
  ASSERT_TRUE(from_attributed.ok());
  // Attributed evidence wins: Beta(2,1) on the observed edge → mean 2/3.
  EXPECT_DOUBLE_EQ(from_attributed->prob(g->FindEdge(0, 1)), 2.0 / 3.0);
}

// ------------------------------------------------------ epoch publication

TEST(ModelEpochs, MaxAbsDriftIsTheInfinityNorm) {
  auto g = Diamond();
  const PointIcm a(g, {0.1, 0.2, 0.3, 0.4});
  const PointIcm b(g, {0.1, 0.5, 0.3, 0.35});
  EXPECT_DOUBLE_EQ(MaxAbsDrift(a, b), 0.3);
  EXPECT_DOUBLE_EQ(MaxAbsDrift(a, a), 0.0);
}

TEST(ModelEpochs, PublishSwapsWithoutInvalidatingReaders) {
  auto g = Diamond();
  EpochPublisher publisher(PointIcm(g, {0.1, 0.2, 0.3, 0.4}));
  auto first = publisher.Current();
  EXPECT_EQ(first->id, 1u);
  EXPECT_DOUBLE_EQ(first->drift, 0.0);

  auto second = publisher.Publish(PointIcm(g, {0.6, 0.2, 0.3, 0.4}));
  EXPECT_EQ(second->id, 2u);
  EXPECT_NEAR(second->drift, 0.5, 1e-15);
  EXPECT_EQ(publisher.Current()->id, 2u);
  // The old epoch a reader holds is untouched by the swap.
  EXPECT_EQ(first->id, 1u);
  EXPECT_DOUBLE_EQ(first->model.prob(0), 0.1);
  EXPECT_GE(publisher.AgeSeconds(), 0.0);
}

TEST(ModelEpochs, ConcurrentPublishMintsUniqueMonotonicIds) {
  auto g = Diamond();
  EpochPublisher publisher(PointIcm(g, {0.1, 0.2, 0.3, 0.4}));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&publisher, &ids, g, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        std::vector<double> probs(g->num_edges());
        for (double& p : probs) p = rng.Uniform(0.1, 0.9);
        ids[static_cast<std::size_t>(t)].push_back(
            publisher.Publish(PointIcm(g, probs))->id);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Per publisher thread the returned ids increase; across all threads the
  // ids are exactly {2, ..., 1 + kThreads*kPerThread}, each minted once.
  std::vector<std::uint64_t> all;
  for (const auto& per_thread : ids) {
    EXPECT_TRUE(std::is_sorted(per_thread.begin(), per_thread.end()));
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i + 2) << "duplicate or skipped epoch id";
  }
  EXPECT_EQ(publisher.Current()->id, 1u + kThreads * kPerThread);
}

// ---------------------------------------------------------- the ingestor

IngestorOptions FastIngest(std::size_t epoch_every = 1) {
  IngestorOptions options;
  options.epoch_every = epoch_every;
  options.seed = 7;
  return options;
}

TEST(StreamIngestor, IngestLineAbsorbsAndPublishes) {
  auto g = Diamond();
  StreamIngestor ingestor(g, PointIcm::Constant(g, 0.5), FastIngest());
  EXPECT_EQ(ingestor.CurrentEpoch()->id, 1u);

  auto ack = ingestor.IngestLine("0|0 1|0>1");
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->absorbed_total, 1u);
  EXPECT_EQ(ack->epoch, 2u);  // epoch_every=1 → publish per record
  // Beta(2,1) on the observed edge, Beta(1,2) on the silent sibling.
  const PointIcm& model = ingestor.CurrentEpoch()->model;
  EXPECT_DOUBLE_EQ(model.prob(g->FindEdge(0, 1)), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(model.prob(g->FindEdge(0, 2)), 1.0 / 3.0);

  EXPECT_FALSE(ingestor.IngestLine("garbage | nonsense").ok());
  EXPECT_EQ(ingestor.rejected(), 1u);
  EXPECT_EQ(ingestor.absorbed(), 1u);
}

TEST(StreamIngestor, EpochCadenceAndCallback) {
  auto g = Diamond();
  StreamIngestor ingestor(g, PointIcm::Constant(g, 0.5), FastIngest(3));
  std::vector<std::uint64_t> published;
  ingestor.SetEpochCallback(
      [&published](std::shared_ptr<const ModelEpoch> epoch) {
        published.push_back(epoch->id);
      });
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(ingestor.IngestLine("0|0 1|0>1").ok());
  }
  // 7 records at epoch_every=3 → publishes after records 3 and 6.
  EXPECT_EQ(published, std::vector<std::uint64_t>({2, 3}));
  auto flushed = ingestor.PublishNow();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ((*flushed)->id, 4u);
  EXPECT_EQ(published, std::vector<std::uint64_t>({2, 3, 4}));
}

TEST(StreamIngestor, ConcurrentIngestKeepsEpochsOrderedAndUnique) {
  auto g = Diamond();
  StreamIngestor ingestor(g, PointIcm::Constant(g, 0.5),
                          FastIngest(/*epoch_every=*/1));
  // The callback runs under the publish lock, so the epochs it sees must
  // be strictly increasing even with many threads racing fit+publish.
  std::uint64_t last_seen = 1;
  std::uint64_t out_of_order = 0;
  std::uint64_t callbacks = 0;
  ingestor.SetEpochCallback(
      [&](std::shared_ptr<const ModelEpoch> epoch) {
        if (epoch->id <= last_seen) ++out_of_order;
        last_seen = epoch->id;
        ++callbacks;
      });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ingestor, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!ingestor.IngestLine("0|0 1|0>1").ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ingestor.absorbed(), kTotal);
  // epoch_every=1: every absorbed record published exactly one epoch.
  EXPECT_EQ(callbacks, kTotal);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(ingestor.CurrentEpoch()->id, 1u + kTotal);
}

TEST(StreamIngestor, FeedFromFileDrainsAndFlushes) {
  auto g = Diamond();
  const std::string path = ::testing::TempDir() + "/stream_feed.ndjson";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "0|0 1|0>1\n";
    out << R"({"attributed":"0|0 2|0>2"})" << "\n";
    out << "not a record\n";
    out << "0|0 1 3|0>1 1>3\n";
  }
  StreamIngestor ingestor(g, PointIcm::Constant(g, 0.5), FastIngest(100));
  ASSERT_TRUE(ingestor.StartFeed(path).ok());
  // A second feed on a live ingestor is refused.
  EXPECT_EQ(ingestor.StartFeed(path).code(), StatusCode::kFailedPrecondition);
  // The file is finite: the reader hits EOF, the consumer drains and
  // flush-publishes. Wait for that epoch rather than sleeping blindly.
  for (int i = 0; i < 500 && ingestor.CurrentEpoch()->id < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ingestor.StopFeed();
  EXPECT_EQ(ingestor.absorbed(), 3u);
  EXPECT_EQ(ingestor.CurrentEpoch()->id, 2u);  // one flush publish
  EXPECT_FALSE(ingestor.StartFeed("/nonexistent/feed").ok());
}

// ------------------------------------------- bank rebuild + serve verb

serve::BankOptions FastBank(std::size_t states = 256) {
  serve::BankOptions options;
  options.num_states = states;
  options.chain.num_chains = 2;
  return options;
}

TEST(SampleBankRebuild, SwapsModelEpochAndIsSeedDeterministic) {
  auto g = RandomGraph(61, 12, 36);
  const PointIcm before = RandomModel(g, 62);
  const PointIcm between = RandomModel(g, 64);
  const PointIcm after = RandomModel(g, 63);

  auto bank1 = serve::SampleBank::Create(before, FastBank(), /*seed=*/9);
  auto bank2 = serve::SampleBank::Create(before, FastBank(), /*seed=*/9);
  ASSERT_TRUE(bank1.ok() && bank2.ok());
  EXPECT_EQ(bank1->Acquire()->model_epoch(), 1u);
  EXPECT_EQ(bank1->model_epoch(), 1u);

  // bank1 has a longer history — refreshes and an intermediate epoch —
  // before both banks rebuild to epoch 5.
  auto held = bank1->Acquire();  // in-flight reader across the rebuilds
  bank1->Refresh();
  bank1->Refresh();
  ASSERT_TRUE(bank1->Rebuild(between, /*model_epoch=*/3).ok());
  bank1->Refresh();
  ASSERT_TRUE(bank1->Rebuild(after, /*model_epoch=*/5).ok());
  ASSERT_TRUE(bank2->Rebuild(after, /*model_epoch=*/5).ok());

  EXPECT_EQ(bank1->model_epoch(), 5u);
  auto gen1 = bank1->Acquire();
  auto gen2 = bank2->Acquire();
  EXPECT_EQ(gen1->id(), 6u);
  EXPECT_EQ(gen2->id(), 2u);
  EXPECT_EQ(gen1->model_epoch(), 5u);
  EXPECT_EQ(held->model_epoch(), 1u);  // the held generation is immutable
  for (EdgeId e = 0; e < g->num_edges(); ++e) {
    EXPECT_EQ(bank1->model().prob(e), after.prob(e));
  }
  // Same create seed + same epoch → the same block streams, hence the same
  // plane whatever either bank did before: a restarted daemon replaying
  // the same evidence reproduces its bank.
  ASSERT_EQ(gen1->num_rows(), gen2->num_rows());
  for (std::size_t b = 0; b < gen1->num_blocks(); ++b) {
    for (EdgeId e = 0; e < g->num_edges(); ++e) {
      ASSERT_EQ(gen1->BlockEdgeWords(b)[e], gen2->BlockEdgeWords(b)[e])
          << "block " << b << " edge " << e;
    }
  }
}

TEST(SampleBankRebuild, RejectsTopologyMismatch) {
  auto g = RandomGraph(71, 12, 36);
  auto other = RandomGraph(72, 12, 37);
  auto bank = serve::SampleBank::Create(RandomModel(g, 73), FastBank(), 1);
  ASSERT_TRUE(bank.ok());
  EXPECT_EQ(bank->Rebuild(RandomModel(other, 74), 2).code(),
            StatusCode::kInvalidArgument);
}

/// One ServeFd conversation over pipes (the test_serve.cc pattern).
std::string RoundTrip(serve::Server& server, const std::string& input) {
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

TEST(ServeIngest, VerbIsRejectedWithoutAnIngestor) {
  auto g = Diamond();
  auto bank =
      serve::SampleBank::Create(PointIcm::Constant(g, 0.5), FastBank(), 3);
  ASSERT_TRUE(bank.ok());
  auto server = serve::Server::Create(std::move(bank).ValueOrDie(), {});
  ASSERT_TRUE(server.ok());
  const std::string out =
      RoundTrip(*server, R"({"id":"i1","ingest":"0|0 1|0>1"})" "\n");
  auto json = ParseJson(SplitLines(out)[0]);
  ASSERT_TRUE(json.ok());
  EXPECT_FALSE(json->Find("ok")->AsBool());
  EXPECT_EQ(json->Find("error")->Find("code")->AsString(),
            "failed-precondition");
}

TEST(ServeIngest, IngestThenQuerySeesRebuiltEpoch) {
  auto g = Diamond();
  const PointIcm initial = PointIcm::Constant(g, 0.5);
  auto bank = serve::SampleBank::Create(initial, FastBank(), 3);
  ASSERT_TRUE(bank.ok());
  serve::ServerOptions options;
  options.drift_threshold = 0.0;  // any drift triggers a rebuild
  auto server = serve::Server::Create(std::move(bank).ValueOrDie(), options);
  ASSERT_TRUE(server.ok());
  auto ingestor =
      std::make_shared<StreamIngestor>(g, initial, FastIngest(/*every=*/2));
  server->AttachIngestor(ingestor);
  ASSERT_TRUE(server->Start().ok());

  // Two evidence lines (epoch publishes after the 2nd) and one query. The
  // protocol guarantees absorption order; the rebuild is asynchronous and
  // drained by Stop() below.
  const std::string out = RoundTrip(
      *server,
      R"({"id":"e1","ingest":"0|0 1|0>1"})" "\n"
      R"({"id":"e2","ingest":"0|0 2|0>2"})" "\n"
      R"({"id":"q1","source":0,"sink":3})" "\n");
  server->Stop();

  const std::vector<std::string> lines = SplitLines(out);
  ASSERT_EQ(lines.size(), 3u);
  auto ack1 = ParseJson(lines[0]);
  ASSERT_TRUE(ack1.ok());
  EXPECT_TRUE(ack1->Find("ok")->AsBool());
  EXPECT_TRUE(ack1->Find("ingested")->AsBool());
  EXPECT_DOUBLE_EQ(ack1->Find("absorbed_total")->AsNumber(), 1.0);
  auto ack2 = ParseJson(lines[1]);
  ASSERT_TRUE(ack2.ok());
  EXPECT_DOUBLE_EQ(ack2->Find("absorbed_total")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(ack2->Find("epoch")->AsNumber(), 2.0);
  auto query = ParseJson(lines[2]);
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query->Find("ok")->AsBool());
  ASSERT_NE(query->Find("model_epoch"), nullptr);

  // Stop() drained the pending rebuild: the bank now serves epoch 2 rows.
  EXPECT_EQ(server->bank().model_epoch(), 2u);
  EXPECT_GE(server->bank().Acquire()->id(), 2u);
  // Edge 1->3 was silent while node 1 was active: Beta(1,2) → mean 1/3.
  EXPECT_DOUBLE_EQ(server->bank().model().prob(g->FindEdge(1, 3)),
                   1.0 / 3.0);
}

TEST(ServeIngest, DriftRebuildInvalidatesTopkSketches) {
  // Round trip for the seedmax publish hook: a top-k answer pins the
  // sketch cache to the current generation/model epoch; streamed evidence
  // that triggers a drift rebuild must re-prime the index so the next
  // top-k answers from the rebuilt rows, not stale sketches.
  auto g = Diamond();
  const PointIcm initial = PointIcm::Constant(g, 0.5);
  auto bank = serve::SampleBank::Create(initial, FastBank(), 3);
  ASSERT_TRUE(bank.ok());
  serve::ServerOptions options;
  options.drift_threshold = 0.0;  // any drift triggers a rebuild
  auto server = serve::Server::Create(std::move(bank).ValueOrDie(), options);
  ASSERT_TRUE(server.ok());
  auto ingestor =
      std::make_shared<StreamIngestor>(g, initial, FastIngest(/*every=*/2));
  server->AttachIngestor(ingestor);
  ASSERT_TRUE(server->Start().ok());

  const std::string before =
      RoundTrip(*server, R"({"id":"m1","topk":2})" "\n");
  auto first = ParseJson(SplitLines(before)[0]);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(first->Find("model_epoch")->AsNumber(), 1.0);
  const double generation_before = first->Find("generation")->AsNumber();

  // Two evidence lines publish epoch 2; Stop() drains the queued rebuild.
  RoundTrip(*server,
            R"({"id":"e1","ingest":"0|0 1|0>1"})" "\n"
            R"({"id":"e2","ingest":"0|0 2|0>2"})" "\n");
  server->Stop();
  ASSERT_EQ(server->bank().model_epoch(), 2u);

  const std::string after =
      RoundTrip(*server, R"({"id":"m2","topk":2})" "\n");
  auto second = ParseJson(SplitLines(after)[0]);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(second->Find("model_epoch")->AsNumber(), 2.0);
  EXPECT_GT(second->Find("generation")->AsNumber(), generation_before);

  // The rebuild's Prime left the index warm: acquiring the current
  // generation directly returns sketches already on the rebuilt epoch.
  auto sketches = server->rr_index()->Acquire(server->bank().Acquire());
  ASSERT_TRUE(sketches.ok()) << sketches.status();
  EXPECT_EQ((*sketches)->model_epoch(), 2u);
}

TEST(ServeIngest, StopQuiescesTheFeedAndDrainsItsRebuild) {
  auto g = Diamond();
  const PointIcm initial = PointIcm::Constant(g, 0.5);
  auto bank = serve::SampleBank::Create(initial, FastBank(), 3);
  ASSERT_TRUE(bank.ok());
  serve::ServerOptions options;
  options.drift_threshold = 0.0;  // any drift triggers a rebuild
  auto server = serve::Server::Create(std::move(bank).ValueOrDie(), options);
  ASSERT_TRUE(server.ok());
  // epoch_every larger than the feed: the only publish is the flush when
  // the drained feed stops — which Stop() itself must trigger and drain.
  auto ingestor = std::make_shared<StreamIngestor>(
      g, initial, FastIngest(/*epoch_every=*/100));
  server->AttachIngestor(ingestor);
  ASSERT_TRUE(server->Start().ok());

  const std::string path = ::testing::TempDir() + "/serve_stop_feed.evidence";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "0|0 1|0>1\n";
  }
  ASSERT_TRUE(ingestor->StartFeed(path).ok());
  for (int i = 0; i < 500 && ingestor->absorbed() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(ingestor->absorbed(), 1u);

  // No explicit StopFeed(): Stop() stops the feed, waits out the flush
  // publish, and applies the resulting drift-triggered rebuild before
  // returning — the epoch-2 model is live once Stop() is back.
  server->Stop();
  EXPECT_EQ(ingestor->CurrentEpoch()->id, 2u);
  EXPECT_EQ(server->bank().model_epoch(), 2u);
  std::remove(path.c_str());
}

TEST(ServeIngest, ProtocolHelpers) {
  auto json = ParseJson(R"({"id":"a","ingest":"0:0"})");
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(serve::IsIngestRequest(*json));
  auto request = serve::ParseIngestRequest(*json);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, "a");
  EXPECT_EQ(request->record, "0:0");

  auto query = ParseJson(R"({"id":"q","source":0,"sink":3})");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(serve::IsIngestRequest(*query));
  EXPECT_FALSE(
      serve::ParseIngestRequest(*ParseJson(R"({"ingest":42})")).ok());

  const std::string ack = serve::SerializeIngestAck(*request, 10, 3);
  auto parsed = ParseJson(ack);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("absorbed_total")->AsNumber(), 10.0);
  EXPECT_DOUBLE_EQ(parsed->Find("epoch")->AsNumber(), 3.0);
}

}  // namespace
}  // namespace infoflow::stream
