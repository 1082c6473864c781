/// \file reachability.h
/// \brief BFS reachability over a subset of "active" edges.
///
/// Deriving the active-state of a pseudo-state (§III-A) — and testing
/// whether a flow u ⤳ v exists in a sampled state (the indicator of Eq. 5)
/// — is reachability from the source set through active edges only. This is
/// the O(m) inner step of every Metropolis–Hastings sample, so the workspace
/// is reusable: no allocation after the first call of a given size.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace infoflow {

/// \brief Reusable BFS workspace bound to a graph size.
///
/// \code
///   ReachabilityWorkspace ws(graph);
///   ws.Run(graph, {source}, active);          // active: vector<uint8_t>[m]
///   bool flows = ws.IsReached(sink);
/// \endcode
class ReachabilityWorkspace {
 public:
  /// Sizes buffers for `graph` (n nodes). The workspace may be reused with
  /// any graph of the same node count.
  explicit ReachabilityWorkspace(const DirectedGraph& graph);

  /// \brief Runs BFS from `sources` following only edges whose slot in
  /// `edge_active` is non-zero. After the call, IsReached() answers
  /// membership in the i-active node set V_i.
  void Run(const DirectedGraph& graph, const std::vector<NodeId>& sources,
           const std::vector<std::uint8_t>& edge_active);

  /// \brief As Run(), but stops early once `target` is reached; returns
  /// whether it was. IsReached() remains valid for the explored prefix only.
  bool RunUntil(const DirectedGraph& graph,
                const std::vector<NodeId>& sources,
                const std::vector<std::uint8_t>& edge_active, NodeId target);

  /// \brief As Run(), but edge activity comes from a word-packed bit row
  /// (bit e of `edge_bits` — word e/64, bit e%64 — is edge e's activity).
  /// `edge_bits` must span ceil(m/64) words. The serve engine's scalar
  /// reference path replays bank rows in this form, unpacked from the
  /// bank's edge-major plane.
  void RunPacked(const DirectedGraph& graph,
                 const std::vector<NodeId>& sources,
                 const std::uint64_t* edge_bits);

  /// Early-exit variant of RunPacked (see RunUntil).
  bool RunUntilPacked(const DirectedGraph& graph,
                      const std::vector<NodeId>& sources,
                      const std::uint64_t* edge_bits, NodeId target);

  /// True when `v` was reached by the last Run()/RunUntil().
  bool IsReached(NodeId v) const;

  /// Nodes reached by the last full Run(), in BFS order (includes sources).
  const std::vector<NodeId>& ReachedNodes() const { return order_; }

  /// \brief Forces the visited-version counter (wrap regression tests
  /// only). The next run increments past the forced value; setting
  /// 0xFFFFFFFF drives the very next run through the wrap-and-clear path,
  /// which must not let a stamp written before the wrap read as "visited".
  void ForceVersionForTesting(std::uint32_t version) { version_ = version; }

 private:
  void Reset(std::size_t num_nodes);

  /// Shared BFS core: `active(e)` answers edge e's activity. Defined in the
  /// .cc — every public Run* variant instantiates it there.
  template <typename ActiveFn>
  bool RunUntilImpl(const DirectedGraph& graph,
                    const std::vector<NodeId>& sources, NodeId target,
                    const ActiveFn& active);

  // Version-stamped visited marks: avoids clearing n bytes per query.
  std::vector<std::uint32_t> visited_version_;
  std::uint32_t version_ = 0;
  std::vector<NodeId> queue_;
  std::vector<NodeId> order_;
};

/// Number of 64-bit words a packed edge-activity row needs for `num_edges`
/// edges (the layout RunPacked consumes).
inline constexpr std::size_t PackedRowWords(std::size_t num_edges) {
  return (num_edges + 63) / 64;
}

/// Bit e of a packed edge-activity row.
inline bool PackedEdgeActive(const std::uint64_t* edge_bits, EdgeId e) {
  return (edge_bits[e >> 6] >> (e & 63)) & 1u;
}

/// One-shot convenience: does a flow `source` ⤳ `sink` exist through the
/// active edges? (Sources are trivially reached: u ⤳ u always holds.)
bool FlowExists(const DirectedGraph& graph, NodeId source, NodeId sink,
                const std::vector<std::uint8_t>& edge_active);

/// One-shot convenience: the full set of nodes reachable from `sources`
/// through active edges (the i-active vertex set).
std::vector<NodeId> ActiveNodes(const DirectedGraph& graph,
                                const std::vector<NodeId>& sources,
                                const std::vector<std::uint8_t>& edge_active);

}  // namespace infoflow
