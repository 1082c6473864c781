#include "learn/evidence_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "twitter/cascade_gen.h"
#include "twitter/tag_gen.h"

namespace infoflow {
namespace {

std::shared_ptr<const DirectedGraph> Triangle() {
  GraphBuilder b(3);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  return std::make_shared<const DirectedGraph>(std::move(b).Build());
}

TEST(AttributedIo, RoundTripsSimpleEvidence) {
  auto g = Triangle();
  AttributedEvidence evidence;
  evidence.objects.push_back(
      {{0}, {0, 1, 2}, {g->FindEdge(0, 1), g->FindEdge(1, 2)}});
  evidence.objects.push_back({{1}, {1, 2}, {g->FindEdge(1, 2)}});
  const std::string text = SerializeAttributedEvidence(*g, evidence);
  auto restored = DeserializeAttributedEvidence(text, *g);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->objects.size(), 2u);
  EXPECT_EQ(restored->objects[0].sources, evidence.objects[0].sources);
  EXPECT_EQ(restored->objects[0].active_nodes,
            evidence.objects[0].active_nodes);
  EXPECT_EQ(restored->objects[0].active_edges,
            evidence.objects[0].active_edges);
  EXPECT_EQ(restored->objects[1].active_edges,
            evidence.objects[1].active_edges);
}

TEST(AttributedIo, RoundTripsGeneratedCascades) {
  Rng rng(5);
  auto graph = std::make_shared<const DirectedGraph>(
      PreferentialAttachmentGraph(60, 3, 0.2, rng));
  std::vector<double> probs(graph->num_edges());
  for (double& p : probs) p = rng.Uniform(0.05, 0.3);
  PointIcm truth(graph, probs);
  const UserRegistry registry = UserRegistry::Sequential(60);
  CascadeGenOptions opt;
  opt.num_messages = 150;
  auto generated = GenerateCascades(truth, registry, opt, rng);
  ASSERT_TRUE(generated.ok());
  const std::string text =
      SerializeAttributedEvidence(*graph, generated->ground_truth);
  auto restored = DeserializeAttributedEvidence(text, *graph);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->objects.size(),
            generated->ground_truth.objects.size());
  for (std::size_t i = 0; i < restored->objects.size(); ++i) {
    EXPECT_EQ(restored->objects[i].active_edges,
              generated->ground_truth.objects[i].active_edges);
  }
}

TEST(AttributedIo, RejectsEdgeMissingFromGraph) {
  auto g = Triangle();
  const std::string text =
      "infoflow-attributed v1\nobjects 1\n0|0 2|2>0\n";
  auto restored = DeserializeAttributedEvidence(text, *g);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
}

TEST(AttributedIo, RejectsMalformedInput) {
  auto g = Triangle();
  EXPECT_FALSE(DeserializeAttributedEvidence("bogus\n", *g).ok());
  EXPECT_FALSE(DeserializeAttributedEvidence(
                   "infoflow-attributed v1\nobjects 2\n0|0|\n", *g)
                   .ok());  // count mismatch
  EXPECT_FALSE(DeserializeAttributedEvidence(
                   "infoflow-attributed v1\nobjects 1\n0|0\n", *g)
                   .ok());  // missing field
  EXPECT_FALSE(DeserializeAttributedEvidence(
                   "infoflow-attributed v1\nobjects 1\n0|0|0-1\n", *g)
                   .ok());  // bad edge syntax
}

TEST(AttributedIo, CollapsesDuplicateIdsWithinFields) {
  // A streaming source that double-delivers a field must not double-count
  // Beta updates: repeats collapse to the first occurrence and are tallied
  // in parse.duplicates.
  auto g = Triangle();
  const std::uint64_t before = obs::GetCounter("parse.duplicates").Value();
  auto object = ParseAttributedObjectLine("0 0|0 1 1 2|0>1 0>1 1>2", *g);
  ASSERT_TRUE(object.ok()) << object.status();
  EXPECT_EQ(object->sources, std::vector<NodeId>({0}));
  EXPECT_EQ(object->active_nodes, std::vector<NodeId>({0, 1, 2}));
  EXPECT_EQ(object->active_edges,
            std::vector<EdgeId>({g->FindEdge(0, 1), g->FindEdge(1, 2)}));
  if constexpr (obs::MetricsEnabled()) {
    EXPECT_EQ(obs::GetCounter("parse.duplicates").Value() - before, 3u);
  }
}

TEST(TracesIo, CollapsesDuplicateActivations) {
  const std::uint64_t before = obs::GetCounter("parse.duplicates").Value();
  auto trace = ParseTraceLine("0:0 1:2.5 0:0");
  ASSERT_TRUE(trace.ok()) << trace.status();
  ASSERT_EQ(trace->activations.size(), 2u);
  EXPECT_EQ(trace->activations[0].node, 0u);
  EXPECT_EQ(trace->activations[1].node, 1u);
  if constexpr (obs::MetricsEnabled()) {
    EXPECT_EQ(obs::GetCounter("parse.duplicates").Value() - before, 1u);
  }
  // The same node at a *different* time cannot be merged — hard error.
  EXPECT_FALSE(ParseTraceLine("0:0 1:2.5 0:1").ok());
}

TEST(AttributedIo, ValidatesSemantics) {
  // Node 2 active without explanation: parse succeeds syntactically but
  // evidence validation must reject it.
  auto g = Triangle();
  const std::string text = "infoflow-attributed v1\nobjects 1\n0|0 2|\n";
  auto restored = DeserializeAttributedEvidence(text, *g);
  EXPECT_FALSE(restored.ok());
}

TEST(TracesIo, RoundTripsTimes) {
  UnattributedEvidence evidence;
  evidence.traces.push_back({{{0, 0.0}, {2, 1.5}, {5, 3.25}}});
  evidence.traces.push_back({{{1, 0.125}}});
  evidence.traces.push_back({});  // empty trace survives
  const std::string text = SerializeUnattributedEvidence(evidence);
  auto restored = DeserializeUnattributedEvidence(text);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->traces.size(), 3u);
  EXPECT_DOUBLE_EQ(restored->traces[0].TimeOf(2), 1.5);
  EXPECT_DOUBLE_EQ(restored->traces[0].TimeOf(5), 3.25);
  EXPECT_DOUBLE_EQ(restored->traces[1].TimeOf(1), 0.125);
  EXPECT_TRUE(restored->traces[2].activations.empty());
}

TEST(TracesIo, ExactDoubleRoundTrip) {
  UnattributedEvidence evidence;
  evidence.traces.push_back({{{0, 1.0 / 3.0}, {1, 1e-17}}});
  auto restored =
      DeserializeUnattributedEvidence(SerializeUnattributedEvidence(evidence));
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored->traces[0].TimeOf(0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(restored->traces[0].TimeOf(1), 1e-17);
}

TEST(TracesIo, RoundTripsGeneratedTagTraces) {
  Rng rng(6);
  auto graph = std::make_shared<const DirectedGraph>(
      UniformRandomGraph(40, 120, rng));
  const TagNetwork network =
      AugmentWithOmnipotent(PointIcm::Constant(graph, 0.2));
  TagGenOptions opt;
  opt.num_objects = 40;
  auto traces = GenerateTagTraces(network, TagKind::kUrl, opt, rng);
  ASSERT_TRUE(traces.ok());
  auto restored =
      DeserializeUnattributedEvidence(SerializeUnattributedEvidence(*traces));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->traces.size(), traces->traces.size());
  for (std::size_t i = 0; i < restored->traces.size(); ++i) {
    ASSERT_EQ(restored->traces[i].activations.size(),
              traces->traces[i].activations.size());
  }
  EXPECT_TRUE(
      ValidateUnattributedEvidence(*network.graph, *restored).ok());
}

TEST(TracesIo, RejectsMalformedInput) {
  EXPECT_FALSE(DeserializeUnattributedEvidence("nope\n").ok());
  EXPECT_FALSE(
      DeserializeUnattributedEvidence("infoflow-traces v1\ntraces 2\n0:1\n")
          .ok());
  EXPECT_FALSE(DeserializeUnattributedEvidence(
                   "infoflow-traces v1\ntraces 1\n0:abc\n")
                   .ok());
  EXPECT_FALSE(DeserializeUnattributedEvidence(
                   "infoflow-traces v1\ntraces 1\n0=1\n")
                   .ok());
}

TEST(EvidenceIo, FileRoundTrip) {
  auto g = Triangle();
  AttributedEvidence evidence;
  evidence.objects.push_back({{0}, {0, 1}, {g->FindEdge(0, 1)}});
  const std::string path =
      ::testing::TempDir() + "/infoflow_evidence_test.att";
  ASSERT_TRUE(SaveAttributedEvidence(*g, evidence, path).ok());
  auto restored = LoadAttributedEvidence(path, *g);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->objects.size(), 1u);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadAttributedEvidence("/missing/file.att", *g).ok());
}

}  // namespace
}  // namespace infoflow
