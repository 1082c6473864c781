/// \file feasibility.h
/// \brief Structural tree-likeness scoring for the analytic backend, and the
/// one subgraph exploration every analytic entry point runs.
///
/// The message-passing / subtree-convolution estimator
/// (analytic/cascade_estimator.h) is *exact* only when the subgraph a query
/// actually touches — the nodes reachable from its source set — is a forest
/// rooted at the sources: every reachable non-source node owns exactly one
/// reachable in-edge, so activation events along distinct branches are
/// independent and products/convolutions compose without error (Burkholz &
/// Quackenbush's locally-tree-like regime; the same structural condition
/// under which the paper's Eq. 2 exclude-set recursion is exact).
///
/// AnalyticWorkspace::Explore is the cheap scorer the BackendDispatcher
/// consults before committing a query to the analytic path: one BFS over
/// the reachable subgraph classifies it as
///   - tree-like       → analytic answers are exact,
///   - enumerable      → small enough for exact pseudo-state enumeration,
///   - loopy-feasible  → the independence-approximation fallback applies,
///     with `expected_error` reporting the heuristic error budget,
///   - infeasible      → the estimator refuses (dense multi-path structure;
///     callers fall back to MH + bank replay, Eq. 5),
/// and the same pass leaves behind everything the estimators need: the BFS
/// order, each node's discovery edge, the relevant edge list and, given
/// edge probabilities, the tree path products. Visited marks are stamped,
/// so a call costs O(reachable subgraph), never O(n).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace infoflow::analytic {

/// \brief Thresholds for the feasibility classification.
struct FeasibilityOptions {
  /// Reachable subgraphs with at most this many relevant edges are answered
  /// by exact pseudo-state enumeration even when loopy (2^m states; keep
  /// well under core/exact_flow.h's kMaxEnumerationEdges).
  std::size_t max_enumeration_edges = 20;
  /// Largest tolerated excess-edge ratio for the loopy fallback: above it
  /// the estimator refuses rather than return an unbounded approximation.
  double max_excess_ratio = 0.25;
};

/// \brief What one structural BFS learned about a query's subgraph.
struct FeasibilityReport {
  /// Nodes reachable from the source set (sources included).
  std::size_t reachable_nodes = 0;
  /// Sources that are in range of the graph (multi-source queries).
  std::size_t reachable_sources = 0;
  /// Relevant edges: (u, v) with u reachable and v not a source — the only
  /// edges that can influence a cascade from the sources (an edge *into* a
  /// source never changes anything, the source is active by fiat).
  std::size_t relevant_edges = 0;
  /// relevant_edges − (reachable_nodes − reachable_sources): 0 iff every
  /// reachable non-source node has exactly one reachable in-edge, i.e. the
  /// reachable subgraph is a forest rooted at the sources (acyclicity is
  /// implied: a cycle's nodes could only be entered through their unique
  /// in-edge, which would lie on the cycle — unreachable from the sources).
  std::size_t excess_edges = 0;
  /// excess_edges / max(1, relevant_edges) — the fraction of edges creating
  /// multi-path correlations the tree factorization cannot represent.
  double excess_ratio = 0.0;
  /// Forest rooted at the sources: analytic answers are exact.
  bool tree_like = false;
  /// Small enough for exact enumeration regardless of topology.
  bool enumerable = false;
  /// tree_like || enumerable || excess_ratio <= max_excess_ratio.
  bool feasible = false;
  /// Heuristic error budget of the answer the estimator would return: 0 for
  /// the two exact regimes, excess_ratio for the loopy fallback (the
  /// independence approximation's bias grows with the shared-path density;
  /// tests/test_analytic.cc spot-checks the calibration).
  double expected_error = 0.0;

  friend bool operator==(const FeasibilityReport&,
                         const FeasibilityReport&) = default;
};

/// \brief Reusable scratch for one query's reachable subgraph.
///
/// Explore() runs a breadth-first search from the sources and records,
/// per reached node, its position ("local index") in BFS order. Visited
/// marks carry a per-call stamp, so nothing of size n is cleared, filled or
/// scanned per call; the mark array only grows, once, to the largest graph
/// the workspace has seen, and graphs of any size may alternate. Results
/// stay valid until the next Explore().
///
/// \code
///   AnalyticWorkspace& ws = AnalyticWorkspace::ForThisThread();
///   const FeasibilityReport report = ws.Explore(graph, sources, probs);
///   if (report.tree_like) p = ws.products()[ws.LocalIndex(sink)];
/// \endcode
class AnalyticWorkspace {
 public:
  /// LocalIndex() of a node the last exploration did not reach.
  static constexpr std::uint32_t kUnreached = ~std::uint32_t{0};

  /// \brief Explores the subgraph reachable from `sources` (all must be
  /// < graph.num_nodes(); duplicates are harmless) and classifies it. When
  /// `probs` holds one probability per edge the pass also multiplies out
  /// every reached node's tree path product. The classification itself is
  /// pure structure, valid for any model over the same topology.
  FeasibilityReport Explore(const DirectedGraph& graph,
                            std::span<const NodeId> sources,
                            std::span<const double> probs = {},
                            const FeasibilityOptions& options = {});

  /// Reached nodes in BFS discovery order; the distinct sources lead.
  std::span<const NodeId> order() const { return order_; }
  /// Distinct sources, i.e. order()[0, num_sources()).
  std::size_t num_sources() const { return num_sources_; }
  /// discovery()[i] = the edge that first reached order()[i]
  /// (kInvalidEdge for sources). In the tree-exact regime it is the node's
  /// only reachable in-edge; elsewhere it spans a BFS forest.
  std::span<const EdgeId> discovery() const { return discovery_; }
  /// The relevant edges (see FeasibilityReport), in BFS scan order.
  std::span<const EdgeId> relevant() const { return relevant_; }
  /// products()[i] = Π of probs over order()[i]'s discovery path (1 for
  /// sources): Pr[sources ⤳ order()[i]] when the subgraph is tree-like.
  /// Empty when Explore() got no per-edge probabilities.
  std::span<const double> products() const { return products_; }

  /// Position of `v` in order(), or kUnreached.
  std::uint32_t LocalIndex(NodeId v) const {
    return v < marks_.size() && marks_[v].stamp == stamp_ ? marks_[v].local
                                                          : kUnreached;
  }

  /// \brief Forces the stamp counter (wrap regression tests only). The
  /// next Explore() increments past the forced value; 0xFFFFFFFF drives it
  /// through the wrap-and-clear path, which must not let a mark written
  /// before the wrap read as "reached".
  void ForceStampForTesting(std::uint32_t stamp) { stamp_ = stamp; }

  /// The calling thread's workspace (created on first use).
  static AnalyticWorkspace& ForThisThread();

 private:
  /// A node is reached iff its stamp equals the current one; `local` is
  /// then its order() index. One 8-byte record keeps both in a cache line.
  struct Mark {
    std::uint32_t stamp = 0;
    std::uint32_t local = 0;
  };

  std::vector<Mark> marks_;
  std::uint32_t stamp_ = 0;
  std::vector<NodeId> order_;
  std::size_t num_sources_ = 0;
  std::vector<EdgeId> discovery_;
  std::vector<EdgeId> relevant_;
  std::vector<double> products_;
};

/// \brief Classifies the subgraph reachable from `sources` on the calling
/// thread's workspace; see AnalyticWorkspace::Explore.
FeasibilityReport AssessFeasibility(const DirectedGraph& graph,
                                    std::span<const NodeId> sources,
                                    const FeasibilityOptions& options = {});

}  // namespace infoflow::analytic
