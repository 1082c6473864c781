#include "analytic/cascade_estimator.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace infoflow::analytic {
namespace {

Status ValidateInputs(const DirectedGraph& graph,
                      std::span<const double> probs,
                      std::span<const NodeId> sources) {
  if (probs.size() != graph.num_edges()) {
    return Status::InvalidArgument("edge-probability span has ", probs.size(),
                                   " entries but the graph has ",
                                   graph.num_edges(), " edges");
  }
  if (sources.empty()) {
    return Status::InvalidArgument("need at least one source");
  }
  for (const NodeId s : sources) {
    if (s >= graph.num_nodes()) {
      return Status::OutOfRange("source node ", s, " not in graph with ",
                                graph.num_nodes(), " nodes");
    }
  }
  return Status::OK();
}

/// Picks the regime for `report`, or a descriptive refusal.
Result<AnalyticMethod> PickMethod(const FeasibilityReport& report,
                                  const AnalyticOptions& options) {
  if (report.tree_like) return AnalyticMethod::kTreeExact;
  if (report.enumerable) return AnalyticMethod::kEnumeration;
  if (!options.require_exact && report.feasible) {
    return AnalyticMethod::kLoopy;
  }
  return Status::FailedPrecondition(
      "analytic estimator refused: the reachable subgraph has ",
      report.reachable_nodes, " nodes and ", report.relevant_edges,
      " relevant edges, of which ", report.excess_edges,
      " are excess (ratio ", report.excess_ratio, ") — not locally ",
      "tree-like",
      options.require_exact
          ? " and no exact regime applies (auto dispatch requires one)"
          : " and denser than max_excess_ratio allows",
      "; answer this query with the sampling/bank backend (Eq. 5 replay)");
}

/// \brief Loopy activation marginals, indexed like ws.order(): monotone
/// Gauss–Seidel sweeps of a(v) = 1 − Π_{(u,v) relevant} (1 − a(u)·p_uv) in
/// BFS order. Exact on forests (one sweep suffices); the independence
/// approximation otherwise.
std::vector<double> LoopyMarginals(const DirectedGraph& graph,
                                   std::span<const double> probs,
                                   const AnalyticWorkspace& ws,
                                   const AnalyticOptions& options) {
  const std::span<const NodeId> order = ws.order();
  std::vector<double> a(order.size(), 0.0);
  std::fill_n(a.begin(), ws.num_sources(), 1.0);
  for (std::size_t sweep = 0; sweep < options.max_loopy_sweeps; ++sweep) {
    double delta = 0.0;
    for (std::size_t i = ws.num_sources(); i < order.size(); ++i) {
      double miss = 1.0;
      for (const EdgeId e : graph.InEdges(order[i])) {
        const std::uint32_t u = ws.LocalIndex(graph.edge(e).src);
        if (u != AnalyticWorkspace::kUnreached) miss *= 1.0 - a[u] * probs[e];
      }
      const double next = 1.0 - miss;
      delta = std::max(delta, next - a[i]);
      a[i] = next;
    }
    if (delta <= options.loopy_tolerance) break;
  }
  return a;
}

/// \brief Runs `fn(weight, reached, activated_count)` for every assignment
/// of the relevant edges — Eq. 5 evaluated exactly over the subgraph.
/// `reached` is indexed like ws.order(); count includes sources.
template <typename Fn>
void EnumerateSubworlds(const DirectedGraph& graph,
                        std::span<const double> probs,
                        const AnalyticWorkspace& ws, Fn&& fn) {
  const std::span<const EdgeId> relevant = ws.relevant();
  const std::size_t m = relevant.size();
  IF_CHECK(m < 63) << "enumeration regime over " << m << " edges";
  const std::size_t n_local = ws.order().size();
  // Local adjacency: (src-local → (dst-local, relevant-edge index)).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n_local);
  for (std::size_t i = 0; i < m; ++i) {
    const Edge& edge = graph.edge(relevant[i]);
    adj[ws.LocalIndex(edge.src)].push_back({ws.LocalIndex(edge.dst), i});
  }
  std::vector<char> reached(n_local, 0);
  std::vector<std::size_t> stack;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double p = probs[relevant[i]];
      weight *= ((mask >> i) & 1) != 0 ? p : 1.0 - p;
    }
    if (weight == 0.0) continue;
    std::fill(reached.begin(), reached.end(), 0);
    stack.clear();
    for (std::size_t i = 0; i < ws.num_sources(); ++i) {
      reached[i] = 1;  // sources lead the order
      stack.push_back(i);
    }
    std::size_t count = ws.num_sources();
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

/// \brief Subtree convolution over the discovery forest: the node at local
/// index i joins its parent's (local pi) subtree with probability
/// `weight(i, pi)`, and the subtree-size PMF composes by convolution
/// (children independent — exact on the tree-exact regime, the
/// marginal-matched approximation on the loopy one). Returns the PMF of
/// the first source's subtree (index = activated node count including it).
template <typename WeightFn>
std::vector<double> SubtreePmf(const DirectedGraph& graph,
                               const AnalyticWorkspace& ws,
                               WeightFn&& weight) {
  const std::size_t n_local = ws.order().size();
  // pmf[i][k] = Pr[node order[i]'s subtree activates exactly k nodes |
  // the node itself is active]; initialized to "the node alone".
  std::vector<std::vector<double>> pmf(n_local, std::vector<double>{0.0, 1.0});
  // Reverse BFS order processes every child before its parent; folding a
  // child releases its PMF, so peak memory tracks the live path, not the
  // whole tree.
  for (std::size_t i = n_local; i-- > 1;) {
    const std::size_t pi =
        ws.LocalIndex(graph.edge(ws.discovery()[i]).src);
    const double w = weight(i, pi);
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
  return std::move(pmf[0]);
}

/// \brief The shared body of both ReachProbabilities overloads: validates,
/// explores, picks the regime, and hands `emit(local, answer)` the
/// probabilities indexed like ws.order() (valid only during the call).
template <typename Emit>
Result<ReachAnswer> Reach(const DirectedGraph& graph,
                          std::span<const double> probs,
                          std::span<const NodeId> sources,
                          std::span<const NodeId> sinks,
                          const AnalyticOptions& options,
                          AnalyticWorkspace& ws, Emit&& emit) {
  IF_RETURN_NOT_OK(ValidateInputs(graph, probs, sources));
  for (const NodeId v : sinks) {
    if (v >= graph.num_nodes()) {
      return Status::OutOfRange("sink node ", v, " not in graph with ",
                                graph.num_nodes(), " nodes");
    }
  }
  ReachAnswer answer;
  answer.report = ws.Explore(graph, sources, probs, options.feasibility);
  auto method = PickMethod(answer.report, options);
  IF_RETURN_NOT_OK(method.status());
  answer.method = *method;

  std::vector<double> marginals;
  switch (answer.method) {
    case AnalyticMethod::kTreeExact:
      // Unique source→v paths: the exploration's discovery-path products
      // are the answers.
      emit(ws.products(), answer);
      return answer;
    case AnalyticMethod::kEnumeration:
      marginals.assign(ws.order().size(), 0.0);
      EnumerateSubworlds(graph, probs, ws,
                         [&](double weight, const std::vector<char>& reached,
                             std::size_t /*count*/) {
                           for (std::size_t i = 0; i < reached.size(); ++i) {
                             if (reached[i] != 0) marginals[i] += weight;
                           }
                         });
      break;
    case AnalyticMethod::kLoopy:
      marginals = LoopyMarginals(graph, probs, ws, options);
      break;
  }
  emit(std::span<const double>(marginals), answer);
  return answer;
}

}  // namespace

const char* AnalyticMethodName(AnalyticMethod method) {
  switch (method) {
    case AnalyticMethod::kTreeExact:
      return "tree-exact";
    case AnalyticMethod::kEnumeration:
      return "enumeration";
    case AnalyticMethod::kLoopy:
      return "loopy";
  }
  return "unknown";
}

double CascadePmf::Mean() const {
  double mean = 0.0;
  for (std::size_t k = 0; k < impact.size(); ++k) {
    mean += static_cast<double>(k) * impact[k];
  }
  return mean;
}

Result<ReachAnswer> ReachProbabilities(const DirectedGraph& graph,
                                       std::span<const double> probs,
                                       std::span<const NodeId> sources,
                                       std::span<const NodeId> sinks,
                                       const AnalyticOptions& options) {
  AnalyticWorkspace& ws = AnalyticWorkspace::ForThisThread();
  return Reach(graph, probs, sources, sinks, options, ws,
               [&](std::span<const double> local, ReachAnswer& answer) {
                 answer.nodes.assign(sinks.begin(), sinks.end());
                 answer.probability.reserve(sinks.size());
                 for (const NodeId v : sinks) {
                   const std::uint32_t i = ws.LocalIndex(v);
                   answer.probability.push_back(
                       i == AnalyticWorkspace::kUnreached ? 0.0 : local[i]);
                 }
               });
}

Result<ReachAnswer> ReachProbabilities(const DirectedGraph& graph,
                                       std::span<const double> probs,
                                       std::span<const NodeId> sources,
                                       const AnalyticOptions& options) {
  AnalyticWorkspace& ws = AnalyticWorkspace::ForThisThread();
  return Reach(graph, probs, sources, {}, options, ws,
               [&](std::span<const double> local, ReachAnswer& answer) {
                 answer.nodes.assign(ws.order().begin(), ws.order().end());
                 answer.probability.assign(local.begin(), local.end());
               });
}

Result<CascadePmf> CascadeSizePmf(const DirectedGraph& graph,
                                  std::span<const double> probs,
                                  NodeId source,
                                  const AnalyticOptions& options) {
  const NodeId sources[1] = {source};
  IF_RETURN_NOT_OK(ValidateInputs(graph, probs, sources));
  AnalyticWorkspace& ws = AnalyticWorkspace::ForThisThread();
  CascadePmf out;
  out.report = ws.Explore(graph, sources, {}, options.feasibility);
  auto method = PickMethod(out.report, options);
  IF_RETURN_NOT_OK(method.status());
  out.method = *method;

  std::vector<double> size_pmf;  // index = activated count incl. source
  switch (out.method) {
    case AnalyticMethod::kTreeExact:
      // Every relevant edge is a discovery edge (unique in-edges), so the
      // subtree convolution over the discovery tree is exact.
      size_pmf = SubtreePmf(graph, ws, [&](std::size_t i, std::size_t) {
        return probs[ws.discovery()[i]];
      });
      break;
    case AnalyticMethod::kEnumeration: {
      std::vector<double> acc(ws.order().size() + 1, 0.0);
      EnumerateSubworlds(graph, probs, ws,
                         [&](double weight, const std::vector<char>&,
                             std::size_t count) { acc[count] += weight; });
      size_pmf = std::move(acc);
      break;
    }
    case AnalyticMethod::kLoopy: {
      // Marginal-matched spanning tree: choosing the tree-edge weight
      // a(v)/a(parent) makes every node's tree marginal telescope to its
      // loopy fixpoint marginal, so the PMF mean equals Σ a(v); the shape
      // assumes tree dependence (see report.expected_error).
      const std::vector<double> a = LoopyMarginals(graph, probs, ws, options);
      size_pmf = SubtreePmf(graph, ws, [&](std::size_t i, std::size_t pi) {
        return a[pi] > 0.0 ? std::min(1.0, a[i] / a[pi]) : 0.0;
      });
      break;
    }
  }

  // Impact excludes the always-active source: shift by one.
  out.impact.assign(size_pmf.size() > 1 ? size_pmf.size() - 1 : 1, 0.0);
  for (std::size_t k = 1; k < size_pmf.size(); ++k) {
    out.impact[k - 1] = size_pmf[k];
  }
  return out;
}

}  // namespace infoflow::analytic
