/// Tests for the analytic subsystem: the feasibility scorer's structural
/// classification, exact-enumeration pins for the message-passing estimator
/// on paths/stars/trees and a small loopy graph, the loopy fallback's
/// calibration, AnalyticImpact against SimulateImpact, a bitwise
/// differential suite of the stamped-workspace estimators against a dense
/// O(n)-per-call reference implementation kept here as the oracle, the
/// BackendDispatcher's routing (auto picks analytic only on exact regimes,
/// conditioning always replays the bank, all-analytic batches skip the
/// bank plan), the protocol's backend field, and a randomized differential
/// suite: every analytic answer within 3×MCSE of the MH + bank replay
/// estimate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytic/cascade_estimator.h"
#include "analytic/feasibility.h"
#include "core/exact_flow.h"
#include "core/impact.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "util/json.h"

namespace infoflow::analytic {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

/// Path 0 → 1 → ... → n-1.
std::shared_ptr<const DirectedGraph> Path(NodeId n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1).CheckOK();
  return Share(std::move(b).Build());
}

/// Star with center 0 and leaves 1..k.
std::shared_ptr<const DirectedGraph> Star(NodeId leaves) {
  GraphBuilder b(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) b.AddEdge(0, v).CheckOK();
  return Share(std::move(b).Build());
}

/// Diamond 0→1, 0→2, 1→3, 2→3: the smallest multi-path shape — loopy for
/// the tree factorization, trivially enumerable.
std::shared_ptr<const DirectedGraph> Diamond() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  b.AddEdge(1, 3).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  return Share(std::move(b).Build());
}

std::vector<double> RandomProbs(const DirectedGraph& g, std::uint64_t seed,
                                double lo = 0.15, double hi = 0.85) {
  Rng rng(seed);
  std::vector<double> probs(g.num_edges());
  for (double& p : probs) p = rng.Uniform(lo, hi);
  return probs;
}

/// Pr[sources ⤳ v] from an every-reached-node answer (0 when unlisted).
double At(const ReachAnswer& answer, NodeId v) {
  const auto it = std::find(answer.nodes.begin(), answer.nodes.end(), v);
  return it == answer.nodes.end()
             ? 0.0
             : answer.probability[static_cast<std::size_t>(
                   it - answer.nodes.begin())];
}

// ----------------------------------------------- dense reference oracle
//
// The estimators as they stood before the stamped workspace: every call
// allocates and fills n-sized arrays and answers with a dense per-node
// vector. Kept as the bitwise oracle for the O(reachable subgraph)
// implementation — same arithmetic in the same order, so every
// probability must match exactly, not just nearly.
namespace oracle {

FeasibilityReport AssessFeasibility(const DirectedGraph& graph,
                                    std::span<const NodeId> sources,
                                    const FeasibilityOptions& options) {
  FeasibilityReport report;
  const NodeId n = graph.num_nodes();
  std::vector<bool> reachable(n, false);
  std::vector<bool> is_source(n, false);
  std::vector<NodeId> frontier;
  for (const NodeId s : sources) {
    if (is_source[s]) continue;
    is_source[s] = true;
    ++report.reachable_sources;
    reachable[s] = true;
    frontier.push_back(s);
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const EdgeId e : graph.OutEdges(u)) {
      const NodeId v = graph.edge(e).dst;
      if (!is_source[v]) ++report.relevant_edges;
      if (!reachable[v]) {
        reachable[v] = true;
        frontier.push_back(v);
      }
    }
  }
  report.reachable_nodes = static_cast<std::size_t>(
      std::count(reachable.begin(), reachable.end(), true));
  const std::size_t spanning =
      report.reachable_nodes - report.reachable_sources;
  report.excess_edges = report.relevant_edges - spanning;
  report.excess_ratio =
      static_cast<double>(report.excess_edges) /
      static_cast<double>(std::max<std::size_t>(1, report.relevant_edges));
  report.tree_like = report.excess_edges == 0;
  report.enumerable = report.relevant_edges <= options.max_enumeration_edges;
  report.feasible = report.tree_like || report.enumerable ||
                    report.excess_ratio <= options.max_excess_ratio;
  report.expected_error =
      (report.tree_like || report.enumerable) ? 0.0 : report.excess_ratio;
  return report;
}

struct Subgraph {
  std::vector<NodeId> order;
  std::vector<bool> reachable;
  std::vector<bool> is_source;
  std::size_t num_sources = 0;
  std::vector<EdgeId> relevant;
  std::vector<EdgeId> discovery;
};

Subgraph Explore(const DirectedGraph& graph, std::span<const NodeId> sources) {
  const NodeId n = graph.num_nodes();
  Subgraph sub;
  sub.reachable.assign(n, false);
  sub.is_source.assign(n, false);
  sub.discovery.assign(n, kInvalidEdge);
  for (const NodeId s : sources) {
    if (sub.is_source[s]) continue;
    sub.is_source[s] = true;
    sub.reachable[s] = true;
    sub.order.push_back(s);
    ++sub.num_sources;
  }
  for (std::size_t head = 0; head < sub.order.size(); ++head) {
    const NodeId u = sub.order[head];
    for (const EdgeId e : graph.OutEdges(u)) {
      const NodeId v = graph.edge(e).dst;
      if (!sub.is_source[v]) sub.relevant.push_back(e);
      if (!sub.reachable[v]) {
        sub.reachable[v] = true;
        sub.discovery[v] = e;
        sub.order.push_back(v);
      }
    }
  }
  return sub;
}

Result<AnalyticMethod> PickMethod(const FeasibilityReport& report,
                                  const AnalyticOptions& options) {
  if (report.tree_like) return AnalyticMethod::kTreeExact;
  if (report.enumerable) return AnalyticMethod::kEnumeration;
  if (!options.require_exact && report.feasible) {
    return AnalyticMethod::kLoopy;
  }
  return Status::FailedPrecondition("refused");
}

std::vector<double> LoopyMarginals(const DirectedGraph& graph,
                                   std::span<const double> probs,
                                   const Subgraph& sub,
                                   const AnalyticOptions& options) {
  std::vector<double> a(graph.num_nodes(), 0.0);
  for (const NodeId v : sub.order) {
    if (sub.is_source[v]) a[v] = 1.0;
  }
  for (std::size_t sweep = 0; sweep < options.max_loopy_sweeps; ++sweep) {
    double delta = 0.0;
    for (const NodeId v : sub.order) {
      if (sub.is_source[v]) continue;
      double miss = 1.0;
      for (const EdgeId e : graph.InEdges(v)) {
        const NodeId u = graph.edge(e).src;
        if (sub.reachable[u]) miss *= 1.0 - a[u] * probs[e];
      }
      const double next = 1.0 - miss;
      delta = std::max(delta, next - a[v]);
      a[v] = next;
    }
    if (delta <= options.loopy_tolerance) break;
  }
  return a;
}

template <typename Fn>
void EnumerateSubworlds(const DirectedGraph& graph,
                        std::span<const double> probs, const Subgraph& sub,
                        Fn&& fn) {
  const std::size_t m = sub.relevant.size();
  const std::size_t n_local = sub.order.size();
  std::vector<std::size_t> local(graph.num_nodes(), 0);
  for (std::size_t i = 0; i < n_local; ++i) local[sub.order[i]] = i;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n_local);
  for (std::size_t i = 0; i < m; ++i) {
    const Edge& edge = graph.edge(sub.relevant[i]);
    adj[local[edge.src]].push_back({local[edge.dst], i});
  }
  std::vector<char> reached(n_local, 0);
  std::vector<std::size_t> stack;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double p = probs[sub.relevant[i]];
      weight *= ((mask >> i) & 1) != 0 ? p : 1.0 - p;
    }
    if (weight == 0.0) continue;
    std::fill(reached.begin(), reached.end(), 0);
    stack.clear();
    for (std::size_t i = 0; i < sub.num_sources; ++i) {
      reached[i] = 1;
      stack.push_back(i);
    }
    std::size_t count = sub.num_sources;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (const auto& [v, i] : adj[u]) {
        if (((mask >> i) & 1) != 0 && reached[v] == 0) {
          reached[v] = 1;
          ++count;
          stack.push_back(v);
        }
      }
    }
    fn(weight, reached, count);
  }
}

template <typename WeightFn>
std::vector<double> SubtreePmf(const DirectedGraph& graph, const Subgraph& sub,
                               NodeId root, WeightFn&& weight) {
  const std::size_t n_local = sub.order.size();
  std::vector<std::size_t> local(graph.num_nodes(), 0);
  for (std::size_t i = 0; i < n_local; ++i) local[sub.order[i]] = i;
  std::vector<std::vector<double>> pmf(n_local, std::vector<double>{0.0, 1.0});
  for (std::size_t i = n_local; i-- > 1;) {
    const NodeId v = sub.order[i];
    const std::size_t pi = local[graph.edge(sub.discovery[v]).src];
    const double w = weight(v);
    std::vector<double>& child = pmf[i];
    std::vector<double>& conv = pmf[pi];
    std::vector<double> merged(conv.size() + child.size() - 1, 0.0);
    for (std::size_t a = 0; a < conv.size(); ++a) {
      const double ca = conv[a];
      if (ca == 0.0) continue;
      merged[a] += ca * (1.0 - w);
      for (std::size_t k = 1; k < child.size(); ++k) {
        merged[a + k] += ca * w * child[k];
      }
    }
    conv = std::move(merged);
    std::vector<double>().swap(child);
  }
  return std::move(pmf[local[root]]);
}

/// Dense Pr[sources ⤳ v] for every v, the regime, and the report; a
/// refusal leaves `probability` empty and `refused` set.
struct DenseReach {
  bool refused = false;
  AnalyticMethod method = AnalyticMethod::kTreeExact;
  FeasibilityReport report;
  std::vector<double> probability;
};

DenseReach Reach(const DirectedGraph& graph, std::span<const double> probs,
                 std::span<const NodeId> sources,
                 const AnalyticOptions& options) {
  DenseReach answer;
  answer.report =
      oracle::AssessFeasibility(graph, sources, options.feasibility);
  auto method = PickMethod(answer.report, options);
  if (!method.ok()) {
    answer.refused = true;
    return answer;
  }
  answer.method = *method;
  const Subgraph sub = Explore(graph, sources);
  answer.probability.assign(graph.num_nodes(), 0.0);
  for (const NodeId v : sub.order) {
    if (sub.is_source[v]) answer.probability[v] = 1.0;
  }
  switch (answer.method) {
    case AnalyticMethod::kTreeExact:
      for (const NodeId v : sub.order) {
        if (sub.is_source[v]) continue;
        const EdgeId e = sub.discovery[v];
        answer.probability[v] =
            answer.probability[graph.edge(e).src] * probs[e];
      }
      break;
    case AnalyticMethod::kEnumeration: {
      std::vector<double> acc(sub.order.size(), 0.0);
      EnumerateSubworlds(graph, probs, sub,
                         [&](double weight, const std::vector<char>& reached,
                             std::size_t) {
                           for (std::size_t i = 0; i < reached.size(); ++i) {
                             if (reached[i] != 0) acc[i] += weight;
                           }
                         });
      for (std::size_t i = 0; i < sub.order.size(); ++i) {
        answer.probability[sub.order[i]] = acc[i];
      }
      break;
    }
    case AnalyticMethod::kLoopy:
      answer.probability = LoopyMarginals(graph, probs, sub, options);
      break;
  }
  return answer;
}

/// The impact PMF, or empty when refused.
std::vector<double> Impact(const DirectedGraph& graph,
                           std::span<const double> probs, NodeId source,
                           const AnalyticOptions& options) {
  const NodeId sources[1] = {source};
  const FeasibilityReport report =
      oracle::AssessFeasibility(graph, sources, options.feasibility);
  auto method = PickMethod(report, options);
  if (!method.ok()) return {};
  const Subgraph sub = Explore(graph, sources);
  std::vector<double> size_pmf;
  switch (*method) {
    case AnalyticMethod::kTreeExact:
      size_pmf = SubtreePmf(graph, sub, source, [&](NodeId v) {
        return probs[sub.discovery[v]];
      });
      break;
    case AnalyticMethod::kEnumeration: {
      std::vector<double> acc(sub.order.size() + 1, 0.0);
      EnumerateSubworlds(graph, probs, sub,
                         [&](double weight, const std::vector<char>&,
                             std::size_t count) { acc[count] += weight; });
      size_pmf = std::move(acc);
      break;
    }
    case AnalyticMethod::kLoopy: {
      const std::vector<double> a = LoopyMarginals(graph, probs, sub, options);
      size_pmf = SubtreePmf(graph, sub, source, [&](NodeId v) {
        const double parent = a[graph.edge(sub.discovery[v]).src];
        return parent > 0.0 ? std::min(1.0, a[v] / parent) : 0.0;
      });
      break;
    }
  }
  std::vector<double> impact(size_pmf.size() > 1 ? size_pmf.size() - 1 : 1,
                             0.0);
  for (std::size_t k = 1; k < size_pmf.size(); ++k) {
    impact[k - 1] = size_pmf[k];
  }
  return impact;
}

}  // namespace oracle

// ---------------------------------------------------------- feasibility

TEST(AssessFeasibility, PathIsTreeLike) {
  auto g = Path(6);
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_TRUE(report.tree_like);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.reachable_nodes, 6u);
  EXPECT_EQ(report.relevant_edges, 5u);
  EXPECT_EQ(report.excess_edges, 0u);
  EXPECT_DOUBLE_EQ(report.expected_error, 0.0);
}

TEST(AssessFeasibility, StarIsTreeLike) {
  auto g = Star(8);
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_TRUE(report.tree_like);
  EXPECT_EQ(report.relevant_edges, 8u);
  EXPECT_EQ(report.excess_edges, 0u);
}

TEST(AssessFeasibility, DiamondHasOneExcessEdgeButEnumerates) {
  auto g = Diamond();
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_FALSE(report.tree_like);
  EXPECT_EQ(report.excess_edges, 1u);  // node 3 owns two reachable in-edges
  EXPECT_TRUE(report.enumerable);      // 4 edges << max_enumeration_edges
  EXPECT_TRUE(report.feasible);
  EXPECT_DOUBLE_EQ(report.expected_error, 0.0);  // an exact regime applies
}

TEST(AssessFeasibility, DenseGraphIsInfeasible) {
  Rng rng(11);
  auto g = Share(UniformRandomGraph(30, 240, rng));
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_FALSE(report.tree_like);
  EXPECT_FALSE(report.enumerable);
  EXPECT_GT(report.excess_ratio, 0.25);
  EXPECT_FALSE(report.feasible);
  EXPECT_GT(report.expected_error, 0.0);
}

TEST(AssessFeasibility, EdgesIntoSourcesAreIrrelevant) {
  // 1 → 0 plus 0 → 2: the in-edge of the source can never matter.
  GraphBuilder b(3);
  b.AddEdge(1, 0).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  auto g = Share(std::move(b).Build());
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_EQ(report.reachable_nodes, 2u);  // {0, 2}; node 1 unreachable
  EXPECT_EQ(report.relevant_edges, 1u);
  EXPECT_TRUE(report.tree_like);
}

TEST(AssessFeasibility, MultiSourceForestIsTreeLike) {
  // Two disjoint paths rooted at the two sources.
  GraphBuilder b(6);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  b.AddEdge(3, 4).CheckOK();
  b.AddEdge(4, 5).CheckOK();
  auto g = Share(std::move(b).Build());
  const NodeId sources[] = {0, 3};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_EQ(report.reachable_sources, 2u);
  EXPECT_EQ(report.reachable_nodes, 6u);
  EXPECT_TRUE(report.tree_like);
}

// ------------------------------------------------- estimator: exact pins

TEST(ReachProbabilities, PathClosedForm) {
  auto g = Path(3);
  const std::vector<double> probs = {0.6, 0.5};
  const NodeId sources[] = {0};
  auto answer = ReachProbabilities(*g, probs, sources);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kTreeExact);
  EXPECT_DOUBLE_EQ(At(*answer, 0), 1.0);
  EXPECT_NEAR(At(*answer, 1), 0.6, 1e-12);
  EXPECT_NEAR(At(*answer, 2), 0.3, 1e-12);
}

TEST(ReachProbabilities, StarLeavesAreIndependentEdges) {
  auto g = Star(4);
  const std::vector<double> probs = {0.1, 0.3, 0.5, 0.7};
  const NodeId sources[] = {0};
  auto answer = ReachProbabilities(*g, probs, sources);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kTreeExact);
  for (NodeId leaf = 1; leaf <= 4; ++leaf) {
    // Leaf order follows edge-id order (GraphBuilder sorts by (src, dst)).
    EXPECT_NEAR(At(*answer, leaf), probs[leaf - 1], 1e-12);
  }
}

TEST(ReachProbabilities, RandomTreeMatchesEnumerationEverywhere) {
  Rng rng(5);
  auto g = Share(RandomTreeGraph(14, 3, rng));  // 13 edges: enumerable
  const std::vector<double> probs = RandomProbs(*g, 6);
  const PointIcm model(g, probs);
  const NodeId sources[] = {0};
  auto answer = ReachProbabilities(*g, probs, sources);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kTreeExact);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    EXPECT_NEAR(At(*answer, v), ExactFlowByEnumeration(model, 0, v),
                1e-9)
        << "node " << v;
  }
}

TEST(ReachProbabilities, DiamondAnswersExactlyByEnumeration) {
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  const NodeId sources[] = {0};
  auto answer = ReachProbabilities(*g, probs, sources);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kEnumeration);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NEAR(At(*answer, v), ExactFlowByEnumeration(model, 0, v),
                1e-9);
  }
}

TEST(ReachProbabilities, LoopyMarginalsExactWhenPathsShareOnlyTheSource) {
  // Forcing the loopy regime on the diamond (enumeration budget 0): the two
  // 0→3 paths share no edge, so the independence approximation is exact.
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  AnalyticOptions options;
  options.feasibility.max_enumeration_edges = 0;
  const NodeId sources[] = {0};
  auto answer = ReachProbabilities(*g, probs, sources, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kLoopy);
  EXPECT_GT(answer->report.expected_error, 0.0);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NEAR(At(*answer, v), ExactFlowByEnumeration(model, 0, v),
                1e-9);
  }
}

TEST(ReachProbabilities, RequireExactRefusesTheLoopyRegime) {
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  AnalyticOptions options;
  options.feasibility.max_enumeration_edges = 0;
  options.require_exact = true;
  const NodeId sources[] = {0};
  auto answer = ReachProbabilities(*g, probs, sources, options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReachProbabilities, DenseGraphRefusedWithDescriptiveStatus) {
  Rng rng(12);
  auto g = Share(UniformRandomGraph(30, 240, rng));
  const std::vector<double> probs = RandomProbs(*g, 13);
  const NodeId sources[] = {0};
  auto answer = ReachProbabilities(*g, probs, sources);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(answer.status().message().find("tree-like"), std::string::npos)
      << answer.status();
}

TEST(ReachProbabilities, RejectsOutOfRangeSourceAndProbSpanMismatch) {
  auto g = Path(3);
  const std::vector<double> probs = {0.5, 0.5};
  const NodeId bad_source[] = {7};
  EXPECT_FALSE(ReachProbabilities(*g, probs, bad_source).ok());
  const std::vector<double> short_probs = {0.5};
  const NodeId sources[] = {0};
  EXPECT_FALSE(ReachProbabilities(*g, short_probs, sources).ok());
  EXPECT_FALSE(
      ReachProbabilities(*g, probs, std::span<const NodeId>{}).ok());
}

// ----------------------------------------------------- cascade-size PMFs

TEST(CascadeSizePmf, PathPmfIsTelescoped) {
  auto g = Path(3);
  const std::vector<double> probs = {0.6, 0.5};
  auto pmf = CascadeSizePmf(*g, probs, 0);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kTreeExact);
  ASSERT_EQ(pmf->impact.size(), 3u);
  EXPECT_NEAR(pmf->impact[0], 0.4, 1e-12);         // edge 0 closed
  EXPECT_NEAR(pmf->impact[1], 0.6 * 0.5, 1e-12);   // open, then closed
  EXPECT_NEAR(pmf->impact[2], 0.6 * 0.5, 1e-12);   // both open
  EXPECT_NEAR(pmf->Mean(), 0.6 + 0.6 * 0.5, 1e-12);
}

TEST(CascadeSizePmf, StarPmfIsBinomial) {
  auto g = Star(3);
  const std::vector<double> probs = {0.5, 0.5, 0.5};
  auto pmf = CascadeSizePmf(*g, probs, 0);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  ASSERT_EQ(pmf->impact.size(), 4u);
  const double expected[] = {0.125, 0.375, 0.375, 0.125};
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(pmf->impact[k], expected[k], 1e-12) << "k=" << k;
  }
}

TEST(CascadeSizePmf, SinkSourceIsPointMassAtZero) {
  auto g = Path(3);
  const std::vector<double> probs = {0.6, 0.5};
  auto pmf = CascadeSizePmf(*g, probs, 2);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  ASSERT_EQ(pmf->impact.size(), 1u);
  EXPECT_DOUBLE_EQ(pmf->impact[0], 1.0);
  EXPECT_DOUBLE_EQ(pmf->Mean(), 0.0);
}

TEST(CascadeSizePmf, DiamondEnumerationSumsToOneAndMatchesMeanIdentity) {
  // Exact enumeration regime: the PMF mean must equal Σ_v Pr[0 ⤳ v] over
  // non-source nodes (linearity of expectation), and the PMF sums to 1.
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  auto pmf = CascadeSizePmf(*g, probs, 0);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kEnumeration);
  double sum = 0.0;
  for (double p : pmf->impact) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  double mean_by_marginals = 0.0;
  for (NodeId v = 1; v < 4; ++v) {
    mean_by_marginals += ExactFlowByEnumeration(model, 0, v);
  }
  EXPECT_NEAR(pmf->Mean(), mean_by_marginals, 1e-9);
}

TEST(CascadeSizePmf, LoopyFallbackMeanWithinItsErrorBudget) {
  // The marginal-matched spanning-tree convolution reproduces the fixpoint
  // mean up to weight clamping (node 3's marginal exceeds either parent's,
  // so its tree edge caps at 1); the residual must stay far inside the
  // report's expected_error budget, relative to the mean.
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  AnalyticOptions options;
  options.feasibility.max_enumeration_edges = 0;
  auto pmf = CascadeSizePmf(*g, probs, 0, options);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kLoopy);
  double mean_by_marginals = 0.0;
  for (NodeId v = 1; v < 4; ++v) {
    mean_by_marginals += ExactFlowByEnumeration(model, 0, v);
  }
  double sum = 0.0;
  for (double p : pmf->impact) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(pmf->report.expected_error, 0.0);
  EXPECT_NEAR(pmf->Mean(), mean_by_marginals,
              pmf->report.expected_error * mean_by_marginals);
}

// ------------------------------- workspace estimators vs the dense oracle

/// One randomized shape for the differential suite.
struct Shape {
  std::shared_ptr<const DirectedGraph> graph;
  std::vector<double> probs;
};

/// Random recursive tree: the tree-exact regime from any source set.
Shape TreeShape(Rng& rng, NodeId max_nodes) {
  const auto n = static_cast<NodeId>(2 + rng.NextBounded(max_nodes - 1));
  Shape shape;
  shape.graph = Share(RandomTreeGraph(n, 1 + rng.NextBounded(4), rng));
  shape.probs = RandomProbs(*shape.graph, rng.NextU64(), 0.05, 0.95);
  return shape;
}

/// Three disjoint random trees in one graph: multi-source forests.
Shape ForestShape(Rng& rng) {
  std::vector<DirectedGraph> trees;
  NodeId total = 0;
  for (int t = 0; t < 3; ++t) {
    trees.push_back(RandomTreeGraph(
        static_cast<NodeId>(2 + rng.NextBounded(40)), 3, rng));
    total += trees.back().num_nodes();
  }
  GraphBuilder builder(total);
  NodeId offset = 0;
  for (const DirectedGraph& tree : trees) {
    for (const Edge& e : tree.edges()) {
      builder.AddEdge(offset + e.src, offset + e.dst).CheckOK();
    }
    offset += tree.num_nodes();
  }
  Shape shape;
  shape.graph = Share(std::move(builder).Build());
  shape.probs = RandomProbs(*shape.graph, rng.NextU64());
  return shape;
}

/// A chain of `k` diamonds (2 paths per link): enumerable when short,
/// loopy when long. Probabilities include the exact 0 and 1 extremes.
Shape DiamondChain(Rng& rng, NodeId k) {
  GraphBuilder b(3 * k + 1);
  for (NodeId d = 0; d < k; ++d) {
    const NodeId top = 3 * d;
    b.AddEdge(top, top + 1).CheckOK();
    b.AddEdge(top, top + 2).CheckOK();
    b.AddEdge(top + 1, top + 3).CheckOK();
    b.AddEdge(top + 2, top + 3).CheckOK();
  }
  Shape shape;
  shape.graph = Share(std::move(b).Build());
  shape.probs = RandomProbs(*shape.graph, rng.NextU64());
  shape.probs[rng.NextBounded(shape.probs.size())] = 0.0;
  shape.probs[rng.NextBounded(shape.probs.size())] = 1.0;
  return shape;
}

/// A tree plus shortcut edges (cycles and edges into sources included):
/// every regime appears, depending on the source set.
Shape LoopyShape(Rng& rng, NodeId n, std::size_t shortcuts) {
  const DirectedGraph tree = RandomTreeGraph(n, 3, rng);
  GraphBuilder b(n);
  for (const Edge& e : tree.edges()) b.AddEdge(e.src, e.dst).CheckOK();
  for (std::size_t added = 0; added < shortcuts;) {
    const auto u = static_cast<NodeId>(rng.NextBounded(n));
    const auto v = static_cast<NodeId>(rng.NextBounded(n));
    if (u != v && b.AddEdgeIfAbsent(u, v)) ++added;
  }
  Shape shape;
  shape.graph = Share(std::move(b).Build());
  shape.probs = RandomProbs(*shape.graph, rng.NextU64(), 0.1, 0.6);
  return shape;
}

/// 1–3 sources, one of them repeated half the time.
std::vector<NodeId> PickSources(Rng& rng, NodeId n) {
  std::vector<NodeId> sources;
  const std::size_t count = 1 + rng.NextBounded(3);
  for (std::size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<NodeId>(rng.NextBounded(n)));
  }
  if (rng.NextBounded(2) == 0) sources.push_back(sources.front());
  return sources;
}

/// Random sinks (reachable or not) plus a source and a repeat.
std::vector<NodeId> PickSinks(Rng& rng, NodeId n,
                              const std::vector<NodeId>& sources) {
  std::vector<NodeId> sinks;
  const std::size_t count = 1 + rng.NextBounded(16);
  for (std::size_t i = 0; i < count; ++i) {
    sinks.push_back(static_cast<NodeId>(rng.NextBounded(n)));
  }
  sinks.push_back(sources.back());
  sinks.push_back(sinks.front());
  return sinks;
}

/// Both ReachProbabilities overloads, AssessFeasibility and (for single
/// sources) CascadeSizePmf against the oracle: reports and regimes equal,
/// probabilities bitwise equal.
void ExpectMatchesOracle(const Shape& shape, const std::vector<NodeId>& sources,
                         const std::vector<NodeId>& sinks,
                         const AnalyticOptions& options) {
  const DirectedGraph& g = *shape.graph;
  const oracle::DenseReach want =
      oracle::Reach(g, shape.probs, sources, options);
  EXPECT_EQ(AssessFeasibility(g, sources, options.feasibility),
            want.report);

  auto got = ReachProbabilities(g, shape.probs, sources, sinks, options);
  auto every = ReachProbabilities(g, shape.probs, sources, options);
  if (want.refused) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
    ASSERT_FALSE(every.ok());
    return;
  }
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->method, want.method);
  EXPECT_EQ(got->report, want.report);
  EXPECT_EQ(got->nodes, sinks);
  ASSERT_EQ(got->probability.size(), sinks.size());
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    EXPECT_EQ(got->probability[i], want.probability[sinks[i]])
        << "sink " << sinks[i] << " (" << AnalyticMethodName(want.method)
        << ")";
  }

  ASSERT_TRUE(every.ok()) << every.status();
  EXPECT_EQ(every->method, want.method);
  std::vector<double> dense(g.num_nodes(), 0.0);
  std::vector<char> listed(g.num_nodes(), 0);
  ASSERT_EQ(every->nodes.size(), every->probability.size());
  for (std::size_t i = 0; i < every->nodes.size(); ++i) {
    const NodeId v = every->nodes[i];
    EXPECT_EQ(listed[v], 0) << "node " << v << " listed twice";
    listed[v] = 1;
    dense[v] = every->probability[i];
  }
  EXPECT_EQ(every->nodes.size(), want.report.reachable_nodes);
  EXPECT_EQ(dense, want.probability);

  if (sources.size() == 1) {
    auto pmf = CascadeSizePmf(g, shape.probs, sources[0], options);
    ASSERT_TRUE(pmf.ok()) << pmf.status();
    EXPECT_EQ(pmf->method, want.method);
    EXPECT_EQ(pmf->impact,
              oracle::Impact(g, shape.probs, sources[0], options));
  }
}

/// Regime knobs cycled by the randomized suites. Enumeration stays under
/// 2^12 subworlds to keep the suite fast.
AnalyticOptions OptionsFor(std::size_t i) {
  AnalyticOptions options;
  options.feasibility.max_enumeration_edges = i % 3 == 0 ? 0 : 12;
  options.require_exact = i % 4 == 3;
  return options;
}

TEST(AnalyticDifferential, BitwiseEqualToDenseOracleAcrossShapesAndRegimes) {
  Rng rng(20120401);
  std::size_t regimes[3] = {0, 0, 0};
  std::size_t refused = 0;
  for (std::size_t trial = 0; trial < 240; ++trial) {
    Shape shape;
    switch (trial % 5) {
      case 0: shape = TreeShape(rng, 300); break;
      case 1: shape = ForestShape(rng); break;
      case 2:
        shape = DiamondChain(rng, static_cast<NodeId>(1 + rng.NextBounded(4)));
        break;
      case 3: shape = LoopyShape(rng, 40, 4); break;
      default: shape = LoopyShape(rng, 12, 10); break;
    }
    const NodeId n = shape.graph->num_nodes();
    for (std::size_t q = 0; q < 4; ++q) {
      const std::vector<NodeId> sources =
          q == 0 ? std::vector<NodeId>{0} : PickSources(rng, n);
      const std::vector<NodeId> sinks = PickSinks(rng, n, sources);
      const AnalyticOptions options = OptionsFor(trial + q);
      ExpectMatchesOracle(shape, sources, sinks, options);
      const oracle::DenseReach want =
          oracle::Reach(*shape.graph, shape.probs, sources, options);
      if (want.refused) {
        ++refused;
      } else {
        ++regimes[static_cast<std::size_t>(want.method)];
      }
    }
  }
  // Every regime (and the refusal path) was actually exercised.
  EXPECT_GT(regimes[static_cast<std::size_t>(AnalyticMethod::kTreeExact)], 0u);
  EXPECT_GT(regimes[static_cast<std::size_t>(AnalyticMethod::kEnumeration)],
            0u);
  EXPECT_GT(regimes[static_cast<std::size_t>(AnalyticMethod::kLoopy)], 0u);
  EXPECT_GT(refused, 0u);
}

TEST(AnalyticWorkspace, ReusedAcrossAlternatingGraphSizes) {
  // The thread's one workspace, 1200 calls cycling a 3000-node tree, a
  // 40-node loopy graph and a 7-node diamond chain: marks from a larger
  // graph must never leak into a smaller one's answers, nor the reverse.
  Rng rng(77);
  std::vector<Shape> shapes;
  shapes.push_back(TreeShape(rng, 3000));
  shapes.push_back(LoopyShape(rng, 40, 4));
  shapes.push_back(DiamondChain(rng, 2));
  for (std::size_t call = 0; call < 1200; ++call) {
    const Shape& shape = shapes[call % shapes.size()];
    const NodeId n = shape.graph->num_nodes();
    const std::vector<NodeId> sources = PickSources(rng, n);
    ExpectMatchesOracle(shape, sources, PickSinks(rng, n, sources),
                        OptionsFor(call));
    if (HasFatalFailure()) return;
  }
}

TEST(AnalyticWorkspace, StampWraparoundForgetsEveryEarlierMark) {
  Rng rng(78);
  const Shape tree = TreeShape(rng, 400);
  const NodeId n = tree.graph->num_nodes();
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  const NodeId root[] = {0};
  const NodeId leaf[] = {n - 1};  // the last node attaches as a leaf

  AnalyticWorkspace& ws = AnalyticWorkspace::ForThisThread();
  // Wrap once first, so the first exploration stamps every node 1 ...
  ws.ForceStampForTesting(0xFFFFFFFFu);
  ws.Explore(*tree.graph, root, tree.probs);
  ASSERT_NE(ws.LocalIndex(n / 2), AnalyticWorkspace::kUnreached);
  // ... and the wrap lands the next one on stamp 1 again: without the
  // clear, every node would still read as reached.
  ws.ForceStampForTesting(0xFFFFFFFFu);
  ws.Explore(*tree.graph, leaf, tree.probs);
  EXPECT_EQ(ws.order().size(), 1u);
  for (NodeId v = 0; v + 1 < n; ++v) {
    ASSERT_EQ(ws.LocalIndex(v), AnalyticWorkspace::kUnreached) << v;
  }
  // Calls straddling a second wrap still match the oracle exactly.
  ws.ForceStampForTesting(0xFFFFFFF0u);
  for (std::size_t call = 0; call < 40; ++call) {
    const std::vector<NodeId> sources = PickSources(rng, n);
    ExpectMatchesOracle(tree, sources, all, AnalyticOptions{});
  }
}

// --------------------------------------------- AnalyticImpact (core/)

TEST(AnalyticImpact, TreeMatchesSimulateImpactWithinSamplingError) {
  Rng rng(31);
  auto g = Share(RandomTreeGraph(24, 3, rng));
  const PointIcm model(g, RandomProbs(*g, 32));
  auto pmf = AnalyticImpact(model, 0);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kTreeExact);

  const std::size_t cascades = 60000;
  Rng sim_rng(33);
  const ImpactDistribution sim = SimulateImpact(model, 0, cascades, sim_rng);
  EXPECT_NEAR(pmf->Mean(), sim.Mean(), 0.05);
  // Every PMF entry within 5 binomial standard errors of the simulation.
  for (std::size_t k = 0; k < pmf->probs.size(); ++k) {
    const double freq = k < sim.counts.size()
                            ? static_cast<double>(sim.counts[k]) /
                                  static_cast<double>(cascades)
                            : 0.0;
    const double p = pmf->probs[k];
    const double se = std::sqrt(std::max(p * (1 - p), 1e-9) /
                                static_cast<double>(cascades));
    EXPECT_NEAR(freq, p, 5 * se + 1e-4) << "impact " << k;
  }
}

TEST(AnalyticImpact, DenseModelRefused) {
  Rng rng(41);
  auto g = Share(UniformRandomGraph(30, 240, rng));
  const PointIcm model(g, RandomProbs(*g, 42));
  auto pmf = AnalyticImpact(model, 0);
  ASSERT_FALSE(pmf.ok());
  EXPECT_EQ(pmf.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace infoflow::analytic

// ------------------------------------------------------- dispatcher tests

namespace infoflow::serve {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

PointIcm TreeModel(std::uint64_t seed, NodeId nodes) {
  Rng rng(seed);
  auto g = Share(RandomTreeGraph(nodes, 3, rng));
  std::vector<double> probs(g->num_edges());
  // Kept away from 0 so deep sinks are not vanishingly rare events — a
  // rare indicator's sample MCSE underestimates chain autocorrelation.
  for (double& p : probs) p = rng.Uniform(0.35, 0.9);
  return PointIcm(g, probs);
}

PointIcm DenseModel(std::uint64_t seed, NodeId nodes, EdgeId edges) {
  Rng rng(seed);
  auto g = Share(UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.9);
  return PointIcm(g, probs);
}

SampleBank MakeBank(const PointIcm& model, std::size_t states,
                    std::uint64_t seed = 21) {
  BankOptions options;
  options.num_states = states;
  options.chain.num_chains = 4;
  auto bank = SampleBank::Create(model, options, seed);
  EXPECT_TRUE(bank.ok()) << bank.status();
  return std::move(bank).ValueOrDie();
}

QueryEngine MakeEngine(const SampleBank& bank,
                       QueryEngineOptions options = {}) {
  auto engine = QueryEngine::Create(bank.graph_ptr(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).ValueOrDie();
}

QueryRequest FlowQuery(NodeId source, NodeId sink,
                       std::optional<QueryBackend> backend = {}) {
  QueryRequest request;
  request.kind = QueryKind::kFlow;
  request.sources = {source};
  request.sinks = {sink};
  request.backend = backend;
  return request;
}

TEST(ParseQueryBackend, RoundTripsAllNamesAndRejectsJunk) {
  for (QueryBackend backend : {QueryBackend::kAuto, QueryBackend::kAnalytic,
                               QueryBackend::kBank}) {
    auto parsed = ParseQueryBackend(QueryBackendName(backend));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(ParseQueryBackend("montecarlo").ok());
  EXPECT_FALSE(ParseQueryBackend("").ok());
}

TEST(BackendDispatcher, AutoPicksAnalyticOnTreeAndStampsTheResult) {
  const PointIcm model = TreeModel(51, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const std::vector<QueryRequest> requests = {
      FlowQuery(0, 5, QueryBackend::kAuto)};
  const auto results = engine.AnswerBatch(*generation, requests);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kAnalytic);
  EXPECT_EQ(results[0].analytic_method, analytic::AnalyticMethod::kTreeExact);
  EXPECT_EQ(results[0].effective_rows, 0u);
  EXPECT_EQ(results[0].total_rows, generation->num_rows());
  EXPECT_EQ(results[0].generation, generation->id());
  ASSERT_EQ(results[0].estimates.size(), 1u);
  EXPECT_EQ(results[0].estimates[0].sink, 5u);
  EXPECT_DOUBLE_EQ(results[0].estimates[0].diagnostics.mean,
                   results[0].estimates[0].value);
}

TEST(BackendDispatcher, AutoFallsBackToBankOnDenseGraphs) {
  const PointIcm model = DenseModel(52, 24, 160);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 5, QueryBackend::kAuto)});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kBank);
  EXPECT_EQ(results[0].effective_rows, generation->num_rows());
}

TEST(BackendDispatcher, ExplicitAnalyticFailsDescriptivelyOnDenseGraphs) {
  const PointIcm model = DenseModel(53, 24, 160);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 5, QueryBackend::kAnalytic)});
  ASSERT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results[0].status.message().find("tree-like"), std::string::npos)
      << results[0].status;
}

TEST(BackendDispatcher, ConditioningAlwaysReplaysTheBank) {
  const PointIcm model = TreeModel(54, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();
  const Edge& e = model.graph().edge(0);

  QueryRequest conditioned = FlowQuery(0, 5, QueryBackend::kAuto);
  conditioned.given.push_back({e.src, e.dst, true});
  auto results = engine.AnswerBatch(*generation, {conditioned});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kBank);

  conditioned.backend = QueryBackend::kAnalytic;
  results = engine.AnswerBatch(*generation, {conditioned});
  ASSERT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results[0].status.message().find("bank"), std::string::npos);
}

TEST(BackendDispatcher, JointQueriesAlwaysReplayTheBank) {
  const PointIcm model = TreeModel(55, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();
  const Edge& e = model.graph().edge(0);

  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows.push_back({e.src, e.dst, true});
  joint.backend = QueryBackend::kAuto;
  const auto results = engine.AnswerBatch(*generation, {joint});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kBank);
}

TEST(BackendDispatcher, EngineDefaultAppliesWhenRequestCarriesNoBackend) {
  const PointIcm model = TreeModel(56, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngineOptions options;
  options.default_backend = QueryBackend::kAuto;
  QueryEngine engine = MakeEngine(bank, options);
  const auto generation = bank.Acquire();

  // No per-request backend → the engine default (auto → analytic on a
  // tree); an explicit bank request still overrides it.
  auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 5), FlowQuery(0, 5, QueryBackend::kBank)});
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_EQ(results[0].backend, QueryBackend::kAnalytic);
  EXPECT_EQ(results[1].backend, QueryBackend::kBank);
  EXPECT_NEAR(results[0].estimates[0].value, results[1].estimates[0].value,
              3 * results[1].estimates[0].diagnostics.mcse + 1e-6);
}

TEST(BackendDispatcher, MixedBatchKeepsPositionalAlignment) {
  const PointIcm model = TreeModel(57, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  std::vector<QueryRequest> requests;
  for (NodeId sink = 1; sink <= 6; ++sink) {
    requests.push_back(FlowQuery(0, sink,
                                 sink % 2 == 0 ? QueryBackend::kAnalytic
                                               : QueryBackend::kBank));
    requests.back().id = std::to_string(sink);
  }
  const auto results = engine.AnswerBatch(*generation, requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status;
    const NodeId sink = requests[i].sinks[0];
    EXPECT_EQ(results[i].backend, sink % 2 == 0 ? QueryBackend::kAnalytic
                                                : QueryBackend::kBank);
    EXPECT_EQ(results[i].estimates[0].sink, sink);
  }
}

TEST(BackendDispatcher, CommunityQueriesTakeTheAnalyticPath) {
  const PointIcm model = TreeModel(58, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0};
  community.sinks = {2, 5, 9};
  community.backend = QueryBackend::kAuto;
  const auto analytic_results = engine.AnswerBatch(*generation, {community});
  ASSERT_TRUE(analytic_results[0].status.ok()) << analytic_results[0].status;
  EXPECT_EQ(analytic_results[0].backend, QueryBackend::kAnalytic);
  ASSERT_EQ(analytic_results[0].estimates.size(), 3u);

  community.backend = QueryBackend::kBank;
  const auto bank_results = engine.AnswerBatch(*generation, {community});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(analytic_results[0].estimates[i].sink,
              bank_results[0].estimates[i].sink);
    EXPECT_NEAR(analytic_results[0].estimates[i].value,
                bank_results[0].estimates[i].value,
                3 * bank_results[0].estimates[i].diagnostics.mcse + 1e-6);
  }
}

TEST(BackendDispatcher, InvalidRequestsStillFailThroughTheBankPath) {
  const PointIcm model = TreeModel(59, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  // Out-of-range sink: the canonical validation error, whichever backend.
  const auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 9999, QueryBackend::kAnalytic)});
  ASSERT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kOutOfRange);
}

TEST(BackendDispatcher, AllAnalyticBatchSkipsTheBankPlanAndTimesEachAnswer) {
  const PointIcm model = TreeModel(60, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();
  // A bank batch first, so the plan's instruments exist with their own
  // bucket bounds before this test looks them up.
  auto results = engine.AnswerBatch(*generation,
                                    {FlowQuery(0, 5, QueryBackend::kBank)});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  obs::Counter& batches = obs::GetCounter("serve.query.batches_total");
  obs::Histogram& sizes = obs::GetHistogram("serve.query.batch_size", {1.0});
  obs::Histogram& flow =
      obs::GetHistogram("serve.query.latency_ms.flow", {1.0});
  obs::Histogram& joint =
      obs::GetHistogram("serve.query.latency_ms.joint", {1.0});
  const std::uint64_t batches_before = batches.Value();
  const std::uint64_t sizes_before = sizes.Snapshot().total;
  const std::uint64_t flow_before = flow.Snapshot().total;
  const std::uint64_t joint_before = joint.Snapshot().total;

  // An answer and a refusal, both claimed by the analytic backend: an
  // explicit analytic joint ask fails before anything is timed.
  const Edge& e = model.graph().edge(0);
  QueryRequest refused;
  refused.kind = QueryKind::kJoint;
  refused.flows.push_back({e.src, e.dst, true});
  refused.backend = QueryBackend::kAnalytic;
  results = engine.AnswerBatch(*generation,
                               {FlowQuery(0, 5, QueryBackend::kAuto), refused});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kAnalytic);
  EXPECT_GT(results[0].latency_ms, 0.0);
  EXPECT_EQ(results[1].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(results[1].backend, QueryBackend::kAnalytic);
  if constexpr (obs::MetricsEnabled()) {
    // No empty plan run: no batch counted, no zero-size sample ...
    EXPECT_EQ(batches.Value(), batches_before);
    EXPECT_EQ(sizes.Snapshot().total, sizes_before);
    // ... the answer's own latency reaches the per-kind instruments, and
    // the refusal, which answered nothing, adds no 0 ms sample.
    EXPECT_EQ(flow.Snapshot().total, flow_before + 1);
    EXPECT_GT(obs::GetGauge("serve.query.latency_ms.flow.p50").Value(), 0.0);
    EXPECT_EQ(joint.Snapshot().total, joint_before);
  }
}

// --------------------------------------------- randomized differential

TEST(BackendDifferential, AnalyticWithin3McseOfBankReplayOnTrees) {
  // On tree-like models every analytic answer agrees with the bank replay
  // estimate within 3×MCSE (plus a hair for MCSE's own noise).
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const PointIcm model = TreeModel(100 + trial, 30);
    SampleBank bank = MakeBank(model, 1024, 1000 + trial);
    QueryEngine engine = MakeEngine(bank);
    const auto generation = bank.Acquire();
    Rng pick(200 + trial);

    std::vector<QueryRequest> requests;
    for (int q = 0; q < 8; ++q) {
      const auto sink = static_cast<NodeId>(
          1 + pick.NextBounded(model.graph().num_nodes() - 1));
      requests.push_back(FlowQuery(0, sink, QueryBackend::kAnalytic));
      requests.push_back(FlowQuery(0, sink, QueryBackend::kBank));
    }
    const auto results = engine.AnswerBatch(*generation, requests);
    for (std::size_t i = 0; i < results.size(); i += 2) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status;
      ASSERT_TRUE(results[i + 1].status.ok()) << results[i + 1].status;
      EXPECT_EQ(results[i].backend, QueryBackend::kAnalytic);
      EXPECT_EQ(results[i + 1].backend, QueryBackend::kBank);
      const double exact = results[i].estimates[0].value;
      const double replay = results[i + 1].estimates[0].value;
      const double mcse = results[i + 1].estimates[0].diagnostics.mcse;
      EXPECT_NEAR(replay, exact, 3 * mcse + 0.01)
          << "trial " << trial << " sink " << requests[i].sinks[0];
    }
  }
}

TEST(BackendDifferential, BankMcseIsCalibratedAgainstExactTreeAnswers) {
  // Bank rows are i.i.d., so a bank estimate's error over its reported
  // binomial MCSE is ~N(0, 1) across independent banks. 48 banks of 256
  // rows (tree-auto's bank size) on one tree, every sink whose exact
  // analytic probability lies in [0.1, 0.9]: the z-scores' SD must be
  // within [0.8, 1.25].
  const PointIcm model = TreeModel(500, 60);
  const NodeId n = model.graph().num_nodes();
  QueryRequest exact_request;
  exact_request.kind = QueryKind::kCommunity;
  exact_request.sources = {0};
  for (NodeId v = 1; v < n; ++v) exact_request.sinks.push_back(v);
  exact_request.backend = QueryBackend::kAnalytic;
  SampleBank first = MakeBank(model, 256, 0);
  QueryEngine engine = MakeEngine(first);
  const auto exact = engine.AnswerBatch(*first.Acquire(), {exact_request});
  ASSERT_TRUE(exact[0].status.ok()) << exact[0].status;
  QueryRequest bank_request = exact_request;
  bank_request.sinks.clear();
  std::vector<double> truth;
  for (const SinkEstimate& est : exact[0].estimates) {
    if (est.value < 0.1 || est.value > 0.9) continue;
    bank_request.sinks.push_back(est.sink);
    truth.push_back(est.value);
  }
  ASSERT_GE(truth.size(), 8u);
  bank_request.backend = QueryBackend::kBank;

  double sum = 0.0;
  double sum_sq = 0.0;
  double count = 0.0;
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    SampleBank bank = MakeBank(model, 256, 7000 + seed);
    const auto results = engine.AnswerBatch(*bank.Acquire(), {bank_request});
    ASSERT_TRUE(results[0].status.ok()) << results[0].status;
    for (std::size_t j = 0; j < truth.size(); ++j) {
      const SinkEstimate& est = results[0].estimates[j];
      ASSERT_GT(est.diagnostics.mcse, 0.0);
      const double z = (est.value - truth[j]) / est.diagnostics.mcse;
      sum += z;
      sum_sq += z * z;
      count += 1.0;
    }
  }
  const double mean = sum / count;
  const double sd = std::sqrt((sum_sq - count * mean * mean) / (count - 1.0));
  EXPECT_GE(sd, 0.8) << truth.size() << " sinks";
  EXPECT_LE(sd, 1.25) << truth.size() << " sinks";
}

TEST(BackendDifferential, LoopyFallbackWithinItsReportedErrorBudget) {
  // A tree plus a few shortcut edges stays under max_excess_ratio: the
  // explicit analytic backend answers loopily, and the answer must agree
  // with bank replay within 3×MCSE plus the report's expected_error.
  Rng rng(71);
  DirectedGraph tree = RandomTreeGraph(30, 3, rng);
  GraphBuilder b(30);
  for (EdgeId e = 0; e < tree.num_edges(); ++e) {
    b.AddEdge(tree.edge(e).src, tree.edge(e).dst).CheckOK();
  }
  std::size_t added = 0;
  while (added < 5) {
    const auto u = static_cast<NodeId>(rng.NextBounded(30));
    const auto v = static_cast<NodeId>(rng.NextBounded(30));
    if (u == v) continue;
    if (b.AddEdgeIfAbsent(u, v)) ++added;
  }
  auto g = Share(std::move(b).Build());
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.5);
  const PointIcm model(g, probs);

  SampleBank bank = MakeBank(model, 512, 72);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  std::vector<QueryRequest> requests;
  for (NodeId sink = 1; sink < 30; sink += 4) {
    requests.push_back(FlowQuery(0, sink, QueryBackend::kAnalytic));
    requests.push_back(FlowQuery(0, sink, QueryBackend::kBank));
  }
  const auto results = engine.AnswerBatch(*generation, requests);
  for (std::size_t i = 0; i < results.size(); i += 2) {
    if (!results[i].status.ok()) {
      // A sink whose subgraph is denser than the loopy budget: refusal is
      // the documented contract, not a differential failure.
      EXPECT_EQ(results[i].status.code(), StatusCode::kFailedPrecondition);
      continue;
    }
    ASSERT_TRUE(results[i + 1].status.ok()) << results[i + 1].status;
    const double analytic_value = results[i].estimates[0].value;
    const double replay = results[i + 1].estimates[0].value;
    const double mcse = results[i + 1].estimates[0].diagnostics.mcse;
    EXPECT_NEAR(replay, analytic_value, 3 * mcse + 0.25 + 0.02)
        << "sink " << requests[i].sinks[0];
  }
}

// ----------------------------------------------------- protocol: backend

TEST(ProtocolBackend, RequestFieldParsesAndJunkIsRejected) {
  auto request = ParseRequestLine(
      R"({"id":"q1","kind":"flow","sources":[0],"sinks":[3],)"
      R"("backend":"analytic"})");
  ASSERT_TRUE(request.ok()) << request.status();
  ASSERT_TRUE(request->backend.has_value());
  EXPECT_EQ(*request->backend, QueryBackend::kAnalytic);

  auto absent = ParseRequestLine(
      R"({"id":"q2","kind":"flow","sources":[0],"sinks":[3]})");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_FALSE(absent->backend.has_value());

  EXPECT_FALSE(ParseRequestLine(
                   R"({"kind":"flow","sources":[0],"sinks":[3],)"
                   R"("backend":"montecarlo"})")
                   .ok());
  EXPECT_FALSE(ParseRequestLine(
                   R"({"kind":"flow","sources":[0],"sinks":[3],)"
                   R"("backend":7})")
                   .ok());
}

TEST(ProtocolBackend, ResponseCarriesTheAnsweringBackend) {
  const PointIcm model = TreeModel(61, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const std::vector<QueryRequest> requests = {
      FlowQuery(0, 5, QueryBackend::kAuto), FlowQuery(0, 5)};
  const auto results = engine.AnswerBatch(*generation, requests);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string line = SerializeResult(requests[i], results[i]);
    auto json = ParseJson(line);
    ASSERT_TRUE(json.ok()) << json.status();
    const JsonValue* backend = json->Find("backend");
    ASSERT_NE(backend, nullptr) << line;
    EXPECT_EQ(backend->AsString(), QueryBackendName(results[i].backend));
  }
}

}  // namespace
}  // namespace infoflow::serve
