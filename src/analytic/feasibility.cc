#include "analytic/feasibility.h"

#include <algorithm>

#include "util/check.h"

namespace infoflow::analytic {

FeasibilityReport AnalyticWorkspace::Explore(
    const DirectedGraph& graph, std::span<const NodeId> sources,
    std::span<const double> probs, const FeasibilityOptions& options) {
  const NodeId n = graph.num_nodes();
  if (marks_.size() < n) marks_.resize(n);
  if (++stamp_ == 0) {
    // Wrapped: a mark stamped 2^32 calls ago would read as reached.
    std::fill(marks_.begin(), marks_.end(), Mark{});
    stamp_ = 1;
  }
  order_.clear();
  discovery_.clear();
  relevant_.clear();
  products_.clear();
  IF_CHECK(probs.empty() || probs.size() == graph.num_edges())
      << "edge-probability span does not match the graph";
  // An edgeless graph's empty span is a complete model: products exist.
  const bool with_products = probs.size() == graph.num_edges();
  const auto reach = [&](NodeId v, EdgeId e) {
    marks_[v] = {stamp_, static_cast<std::uint32_t>(order_.size())};
    order_.push_back(v);
    discovery_.push_back(e);
  };
  for (const NodeId s : sources) {
    IF_CHECK(s < n) << "source " << s << " out of range";
    if (marks_[s].stamp == stamp_) continue;  // duplicate
    reach(s, kInvalidEdge);
    if (with_products) products_.push_back(1.0);
  }
  num_sources_ = order_.size();

  // True BFS (index queue) so discovery edges form a breadth-first
  // spanning forest — deterministic regardless of regime. Every edge
  // leaving a reached node is relevant unless it re-enters a source
  // (sources are active by fiat, see FeasibilityReport).
  const Edge* edges = graph.edges().data();
  for (std::size_t head = 0; head < order_.size(); ++head) {
    for (const EdgeId e : graph.OutEdges(order_[head])) {
      const NodeId v = edges[e].dst;
      const Mark mark = marks_[v];
      if (mark.stamp == stamp_) {
        if (mark.local >= num_sources_) relevant_.push_back(e);
        continue;
      }
      relevant_.push_back(e);
      reach(v, e);
      // Parents precede children, so the parent's product is final.
      if (with_products) products_.push_back(products_[head] * probs[e]);
    }
  }

  FeasibilityReport report;
  report.reachable_nodes = order_.size();
  report.reachable_sources = num_sources_;
  report.relevant_edges = relevant_.size();
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

AnalyticWorkspace& AnalyticWorkspace::ForThisThread() {
  thread_local AnalyticWorkspace workspace;
  return workspace;
}

FeasibilityReport AssessFeasibility(const DirectedGraph& graph,
                                    std::span<const NodeId> sources,
                                    const FeasibilityOptions& options) {
  return AnalyticWorkspace::ForThisThread().Explore(graph, sources, {},
                                                    options);
}

}  // namespace infoflow::analytic
