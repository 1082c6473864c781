/// \file strip_reachability_inl.h
/// \brief Template bodies of StripReachabilityWorkspace<W, Isa>.
///
/// Included by the translation units that explicitly instantiate the
/// workspace: strip_reachability.cc (generic, always built) and the
/// ISA-tagged units strip_reachability_avx2.cc / strip_reachability_avx512.cc
/// (compiled with -mavx2 / -mavx512f when the toolchain supports them). The
/// Isa tag keeps every instantiation's symbols distinct, so a binary can
/// carry the generic and vector variants side by side and pick at runtime
/// (StripWorkspace::Create) without any one-definition clash. All variants
/// compute bit-identical masks — the tag only changes which StripOps kernel
/// bodies are compiled in.

#pragma once

#include <algorithm>
#include <bit>
#include <string>

#include "graph/strip_reachability.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow {

template <unsigned W, int Isa>
StripReachabilityWorkspace<W, Isa>::StripReachabilityWorkspace(
    const DirectedGraph& graph)
    : reached_(std::size_t{graph.num_nodes()} * W, 0),
      propagated_(std::size_t{graph.num_nodes()} * W, 0),
      frontier_bits_((graph.num_nodes() + 63) / 64, 0),
      next_bits_((graph.num_nodes() + 63) / 64, 0),
      ever_bits_((graph.num_nodes() + 63) / 64, 0),
      metric_strips_(&obs::GetCounter(std::string("reach.batch_blocks.") +
                                      std::to_string(64 * W))),
      metric_frontier_words_(&obs::GetCounter("reach.frontier_words")),
      metric_pull_rounds_(&obs::GetCounter("reach.pull_rounds")),
      metric_strip_latency_us_(&obs::GetHistogram(
          "reach.strip_latency_us",
          {1.0, 5.0, 25.0, 100.0, 500.0, 2500.0, 10000.0})) {
  touched_.reserve(graph.num_nodes());
  BindGraph(graph);
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::BindGraph(
    const DirectedGraph& graph) {
  bound_graph_ = &graph;
  const NodeId n = graph.num_nodes();
  first_edge_.assign(n + 1, 0);
  dst_.resize(graph.num_edges());
  EdgeId k = 0;
  for (NodeId v = 0; v < n; ++v) {
    first_edge_[v] = k;
    for (const EdgeId e : graph.OutEdges(v)) {
      // Strip-plane words are indexed by position in the flat walk, so the
      // id range must really be contiguous (GraphBuilder's lexicographic
      // assignment guarantees it).
      IF_CHECK_EQ(e, k) << "out-edge ids of node " << v << " not contiguous";
      dst_[k++] = graph.edge(e).dst;
    }
  }
  first_edge_[n] = k;
  // Reversed CSR for the bottom-up pull; in_eid_ keeps the forward edge id
  // so pulls index the same strip plane as pushes.
  in_first_.assign(n + 1, 0);
  in_src_.resize(graph.num_edges());
  in_eid_.resize(graph.num_edges());
  k = 0;
  for (NodeId v = 0; v < n; ++v) {
    in_first_[v] = k;
    for (const EdgeId e : graph.InEdges(v)) {
      in_src_[k] = graph.edge(e).src;
      in_eid_[k] = e;
      ++k;
    }
  }
  in_first_[n] = k;
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::Run(
    const DirectedGraph& graph, const std::vector<NodeId>& sources,
    const std::uint64_t* strip_words, const std::uint64_t* lane_mask) {
  Begin(graph);
  for (const NodeId s : sources) {
    Seed(s, lane_mask);
  }
  Finish(strip_words);
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::RunUntil(
    const DirectedGraph& graph, const std::vector<NodeId>& sources,
    const std::uint64_t* strip_words, NodeId target,
    const std::uint64_t* lane_mask, std::uint64_t* target_mask) {
  WallTimer timer;
  Begin(graph);
  IF_CHECK(std::size_t{target} * W < reached_.size())
      << "target " << target << " out of range";
  if (back_reached_.size() != reached_.size()) {
    back_reached_.assign(reached_.size(), 0);
    back_propagated_.assign(reached_.size(), 0);
    back_ever_.assign(frontier_bits_.size(), 0);
    back_queued_.assign(frontier_bits_.size(), 0);
  }
  for (const NodeId v : back_touched_) {
    StripOps<W, Isa>::Zero(&back_reached_[std::size_t{v} * W]);
    StripOps<W, Isa>::Zero(&back_propagated_[std::size_t{v} * W]);
    back_ever_[v >> 6] = 0;
  }
  back_touched_.clear();
  // Seed both sides with the lane mask: the sources forward, the target
  // backward. frontier_bits_ marks the forward queue.
  std::uint64_t degree_sum[2] = {0, 0};
  queue_[0].clear();
  for (const NodeId s : sources) {
    IF_CHECK(std::size_t{s} * W < reached_.size())
        << "seed " << s << " out of range";
    StripOps<W, Isa>::MergeInto(&reached_[std::size_t{s} * W], lane_mask);
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if ((frontier_bits_[s >> 6] & bit) != 0) continue;  // duplicate source
    frontier_bits_[s >> 6] |= bit;
    ever_bits_[s >> 6] |= bit;
    touched_.push_back(s);
    queue_[0].push_back(s);
    degree_sum[0] += first_edge_[s + 1] - first_edge_[s];
  }
  StripOps<W, Isa>::Copy(&back_reached_[std::size_t{target} * W], lane_mask);
  back_queued_[target >> 6] |= std::uint64_t{1} << (target & 63);
  back_ever_[target >> 6] |= std::uint64_t{1} << (target & 63);
  back_touched_.push_back(target);
  queue_[1].assign(1, target);
  degree_sum[1] = in_first_[target + 1] - in_first_[target];
  // found: lanes decided yes (the sides met); live: lanes still undecided.
  std::uint64_t found[W];
  std::uint64_t live[W];
  for (unsigned w = 0; w < W; ++w) {
    found[w] = reached_[std::size_t{target} * W + w];  // target is a source
    live[w] = lane_mask[w] & ~found[w];
  }
  std::uint64_t relaxed = 0;
  while (StripOps<W, Isa>::AnySet(live)) {
    relaxed += degree_sum[1] < degree_sum[0]
                   ? MeetRound<true>(strip_words, live, found, degree_sum[1])
                   : MeetRound<false>(strip_words, live, found, degree_sum[0]);
  }
  // Deciding every lane can leave nodes queued; restore the all-zero marks.
  for (const NodeId v : queue_[0]) frontier_bits_[v >> 6] = 0;
  for (const NodeId v : queue_[1]) back_queued_[v >> 6] = 0;
  StripOps<W, Isa>::Copy(target_mask, found);
  metric_strips_->Increment();
  metric_frontier_words_->Increment(relaxed);
  if constexpr (obs::MetricsEnabled()) {
    metric_strip_latency_us_->Record(timer.Seconds() * 1e6);
  }
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::Begin(const DirectedGraph& graph) {
  IF_CHECK_EQ(reached_.size(), std::size_t{graph.num_nodes()} * W);
  if (&graph != bound_graph_) BindGraph(graph);
  // Same between-runs invariant as the 64-lane workspace: only the previous
  // run's touched set is nonzero, so clear that set, not all n·W words.
  for (const NodeId v : touched_) {
    StripOps<W, Isa>::Zero(&reached_[std::size_t{v} * W]);
    StripOps<W, Isa>::Zero(&propagated_[std::size_t{v} * W]);
    frontier_bits_[v >> 6] = 0;
  }
  touched_.clear();
  std::fill(ever_bits_.begin(), ever_bits_.end(), 0);
  StripOps<W, Isa>::Zero(seeded_union_);
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::Seed(NodeId v,
                                              const std::uint64_t* lanes) {
  IF_CHECK(std::size_t{v} * W < reached_.size())
      << "seed " << v << " out of range";
  std::uint64_t* rv = &reached_[std::size_t{v} * W];
  const bool ever = (ever_bits_[v >> 6] >> (v & 63) & 1) != 0;
  if (!StripOps<W, Isa>::MergeInto(rv, lanes) && ever) {
    return;  // nothing new to propagate
  }
  StripOps<W, Isa>::MergeInto(seeded_union_, lanes);
  frontier_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
  ever_bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::Propagate(
    const std::uint64_t* strip_words) {
  Finish(strip_words);
}

template <unsigned W, int Isa>
std::uint64_t StripReachabilityWorkspace<W, Isa>::PushRound(
    const std::uint64_t* strip_words, std::uint64_t* frontier,
    std::uint64_t* next) {
  std::uint64_t relaxed = 0;
  const std::size_t num_words = frontier_bits_.size();
  NodeId batch[64];
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    std::uint64_t bits = frontier[wi];
    if (bits == 0) continue;
    frontier[wi] = 0;
    const NodeId base = static_cast<NodeId>(wi << 6);
    unsigned cnt = 0;
    do {
      batch[cnt++] = base + static_cast<NodeId>(std::countr_zero(bits));
      bits &= bits - 1;
    } while (bits != 0);
    if constexpr (W > 1) {
      // Wide strips spill L2 on big graphs, so the per-node state and the
      // reached_[dst] gathers land in L3. The frontier word hands us up to
      // 64 upcoming nodes at once: issue their line fetches before the
      // compute sweep so the (latency-bound, not bandwidth-bound) misses
      // overlap. Processing order is unchanged — results are identical.
      for (unsigned i = 0; i < cnt; ++i) {
        const NodeId u = batch[i];
        __builtin_prefetch(&reached_[std::size_t{u} * W], 1);
        __builtin_prefetch(&propagated_[std::size_t{u} * W], 1);
      }
      for (unsigned i = 0; i < cnt; ++i) {
        const EdgeId e1 = first_edge_[batch[i] + 1];
        for (EdgeId e = first_edge_[batch[i]]; e < e1; ++e) {
          __builtin_prefetch(&strip_words[std::size_t{e} * W], 0);
          __builtin_prefetch(&reached_[std::size_t{dst_[e]} * W], 1);
        }
      }
    }
    for (unsigned i = 0; i < cnt; ++i) {
      const NodeId u = batch[i];
      std::uint64_t delta[W];
      if (!StripOps<W, Isa>::Delta(delta, &reached_[std::size_t{u} * W],
                                   &propagated_[std::size_t{u} * W])) {
        continue;  // duplicate source seed
      }
      StripOps<W, Isa>::Copy(&propagated_[std::size_t{u} * W],
                             &reached_[std::size_t{u} * W]);
      ++relaxed;
      const EdgeId e1 = first_edge_[u + 1];
      const unsigned live = StripOps<W, Isa>::NonzeroWords(delta);
      if (W > 1 && static_cast<unsigned>(std::popcount(live)) * 2 <= W) {
        // Sparse revisit: near-critical replays grow different words on
        // different rounds, so most re-pushes carry deltas in one or two
        // of the W words. Relaxing only the live words keeps the wide
        // strip's per-revisit cost near the 64-lane path's instead of W×
        // it; dead words contribute nothing, so answers are unchanged.
        for (EdgeId e = first_edge_[u]; e < e1; ++e) {
          const NodeId v = dst_[e];
          std::uint64_t* rv = &reached_[std::size_t{v} * W];
          const std::uint64_t* pe = &strip_words[std::size_t{e} * W];
          std::uint64_t grew = 0;
          for (unsigned m = live; m != 0; m &= m - 1) {
            const unsigned w = static_cast<unsigned>(std::countr_zero(m));
            const std::uint64_t merged = rv[w] | (delta[w] & pe[w]);
            grew |= merged ^ rv[w];
            rv[w] = merged;
          }
          next[v >> 6] |= std::uint64_t{grew != 0} << (v & 63);
        }
        continue;
      }
      for (EdgeId e = first_edge_[u]; e < e1; ++e) {
        const NodeId v = dst_[e];
        const bool grew =
            StripOps<W, Isa>::Relax(&reached_[std::size_t{v} * W], delta,
                                    &strip_words[std::size_t{e} * W]);
        next[v >> 6] |= std::uint64_t{grew} << (v & 63);
      }
    }
  }
  return relaxed;
}

template <unsigned W, int Isa>
std::uint64_t StripReachabilityWorkspace<W, Isa>::PullRound(
    const std::uint64_t* strip_words, std::uint64_t* frontier,
    std::uint64_t* next) {
  // A pull round consumes the entire pending set: every edge is relaxed
  // with (at least) its source's start-of-round mask, because node v's
  // sweep below reads reached_[src] live and only v's own sweep writes
  // reached_[v]. Clear the frontier up front; growth re-marks in `next`.
  std::fill_n(frontier, frontier_bits_.size(), 0);
  const NodeId n = static_cast<NodeId>(first_edge_.size() - 1);
  for (NodeId v = 0; v < n; ++v) {
    std::uint64_t* rv = &reached_[std::size_t{v} * W];
    // Words already at the seeded-union cap cannot grow; pulling only the
    // unsaturated words leaves the result bit-identical (Pull is a pure OR).
    const unsigned live = StripOps<W, Isa>::DifferingWords(rv, seeded_union_);
    if (live == 0) {
      // Saturated: v cannot grow, and every head of v's out-edges either
      // pulls v's full mask during this sweep or is itself saturated and
      // needs nothing. Claim full delivery.
      StripOps<W, Isa>::Copy(&propagated_[std::size_t{v} * W], rv);
      continue;
    }
    std::uint64_t old[W];
    StripOps<W, Isa>::Copy(old, rv);
    const EdgeId k1 = in_first_[v + 1];
    if (W > 1 && static_cast<unsigned>(std::popcount(live)) * 2 <= W) {
      for (EdgeId k = in_first_[v]; k < k1; ++k) {
        const std::uint64_t* sv = &reached_[std::size_t{in_src_[k]} * W];
        const std::uint64_t* pe = &strip_words[std::size_t{in_eid_[k]} * W];
        for (unsigned m = live; m != 0; m &= m - 1) {
          const unsigned w = static_cast<unsigned>(std::countr_zero(m));
          rv[w] |= sv[w] & pe[w];
        }
      }
    } else {
      for (EdgeId k = in_first_[v]; k < k1; ++k) {
        StripOps<W, Isa>::Pull(rv, &reached_[std::size_t{in_src_[k]} * W],
                               &strip_words[std::size_t{in_eid_[k]} * W]);
      }
    }
    // Out-edges of v were (or will be, for heads scanned after v) relaxed
    // with at least `old`, so claiming `old` delivered keeps the delta
    // invariant; the [old, merged) lanes are re-pushed next round, and the
    // OR-lattice merge makes that re-push idempotent.
    StripOps<W, Isa>::Copy(&propagated_[std::size_t{v} * W], old);
    const bool grew = !StripOps<W, Isa>::Equal(rv, old);
    next[v >> 6] |= std::uint64_t{grew} << (v & 63);
  }
  metric_pull_rounds_->Increment();
  return n;
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::Finish(
    const std::uint64_t* strip_words) {
  WallTimer timer;
  std::uint64_t frontier_words = 0;
  const std::size_t num_words = frontier_bits_.size();
  const NodeId n = static_cast<NodeId>(first_edge_.size() - 1);
  std::uint64_t* frontier = frontier_bits_.data();
  std::uint64_t* next = next_bits_.data();
  bool done = false;
  while (!done) {
    // Direction choice à la Beamer: a wide live frontier makes the
    // one-visit-per-node pull sweep cheaper than revisiting push targets
    // once per distinct arrival depth.
    std::uint64_t live = 0;
    for (std::size_t wi = 0; wi < num_words; ++wi) {
      live += static_cast<std::uint64_t>(std::popcount(frontier[wi]));
    }
    const bool pull =
        static_cast<double>(live) > pull_threshold_ * static_cast<double>(n);
    frontier_words += pull ? PullRound(strip_words, frontier, next)
                           : PushRound(strip_words, frontier, next);
    std::uint64_t any = 0;
    for (std::size_t wi = 0; wi < num_words; ++wi) {
      ever_bits_[wi] |= next[wi];
      any |= next[wi];
    }
    std::swap(frontier, next);
    done = any == 0;
  }
  // The loop ends on an empty frontier, in either bitmap; re-extract
  // touched_ from ever_bits_, exactly as the 64-lane workspace does.
  touched_.clear();
  for (std::size_t wi = 0; wi < num_words; ++wi) {
    std::uint64_t bits = ever_bits_[wi];
    const NodeId base = static_cast<NodeId>(wi << 6);
    while (bits != 0) {
      touched_.push_back(base + static_cast<NodeId>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  metric_strips_->Increment();
  metric_frontier_words_->Increment(frontier_words);
  if constexpr (obs::MetricsEnabled()) {
    metric_strip_latency_us_->Record(timer.Seconds() * 1e6);
  }
}

template <unsigned W, int Isa>
template <bool kBackward>
std::uint64_t StripReachabilityWorkspace<W, Isa>::MeetRound(
    const std::uint64_t* strip_words, std::uint64_t* live,
    std::uint64_t* found, std::uint64_t& degree_sum) {
  // Forward walks out-edges, whose flat position is the plane index;
  // backward walks in-edges through in_eid_. Each side checks the other's
  // reached masks for a meet.
  const EdgeId* first = kBackward ? in_first_.data() : first_edge_.data();
  const NodeId* nbr = kBackward ? in_src_.data() : dst_.data();
  std::uint64_t* own = kBackward ? back_reached_.data() : reached_.data();
  std::uint64_t* sent =
      kBackward ? back_propagated_.data() : propagated_.data();
  const std::uint64_t* other =
      kBackward ? reached_.data() : back_reached_.data();
  std::uint64_t* queued =
      kBackward ? back_queued_.data() : frontier_bits_.data();
  std::uint64_t* ever = kBackward ? back_ever_.data() : ever_bits_.data();
  std::vector<NodeId>& touched = kBackward ? back_touched_ : touched_;
  std::vector<NodeId>& queue = queue_[kBackward];
  std::vector<NodeId>& next = next_queue_[kBackward];
  next.clear();
  degree_sum = 0;
  // Local copies keep the lane words in registers across the edge loop.
  std::uint64_t undecided[W];
  std::uint64_t met[W];
  std::uint64_t grew[W] = {};
  StripOps<W, Isa>::Copy(undecided, live);
  StripOps<W, Isa>::Copy(met, found);
  std::uint64_t relaxed = 0;
  for (const NodeId u : queue) {
    queued[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
    std::uint64_t* ru = own + std::size_t{u} * W;
    std::uint64_t* su = sent + std::size_t{u} * W;
    std::uint64_t delta[W];
    std::uint64_t pending = 0;
    for (unsigned w = 0; w < W; ++w) {
      delta[w] = ru[w] & ~su[w] & undecided[w];
      pending |= delta[w];
    }
    // Lanes decided since u grew need no relaxing; claim them sent too.
    StripOps<W, Isa>::Copy(su, ru);
    if (pending == 0) continue;
    ++relaxed;
    // As in PushRound, a delta live in at most half the words relaxes
    // only those words.
    const unsigned words = StripOps<W, Isa>::NonzeroWords(delta);
    const bool sparse =
        W > 1 && static_cast<unsigned>(std::popcount(words)) * 2 <= W;
    const EdgeId k1 = first[u + 1];
    for (EdgeId k = first[u]; k < k1; ++k) {
      const NodeId v = nbr[k];
      const EdgeId e = kBackward ? in_eid_[k] : k;
      const std::uint64_t* pe = strip_words + std::size_t{e} * W;
      std::uint64_t* rv = own + std::size_t{v} * W;
      const std::uint64_t* ov = other + std::size_t{v} * W;
      std::uint64_t added = 0;
      const auto relax = [&](unsigned w) {
        const std::uint64_t g = delta[w] & pe[w] & ~rv[w];
        rv[w] |= g;
        grew[w] |= g;
        added |= g;
        // Grown where the other side already reaches: the sides meet.
        const std::uint64_t hit = g & ov[w];
        met[w] |= hit;
        undecided[w] &= ~hit;
      };
      if (sparse) {
        for (unsigned m = words; m != 0; m &= m - 1) {
          relax(static_cast<unsigned>(std::countr_zero(m)));
        }
      } else {
        for (unsigned w = 0; w < W; ++w) relax(w);
      }
      if (added == 0) continue;
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if ((queued[v >> 6] & bit) == 0) {
        queued[v >> 6] |= bit;
        next.push_back(v);
        degree_sum += first[v + 1] - first[v];
      }
      if ((ever[v >> 6] & bit) == 0) {
        ever[v >> 6] |= bit;
        touched.push_back(v);
      }
    }
  }
  queue.swap(next);
  // A lane this level left nothing pending in is closed on this side: had
  // a source reached the target there, the sides would have met.
  for (unsigned w = 0; w < W; ++w) {
    live[w] = undecided[w] & grew[w];
    found[w] = met[w];
  }
  return relaxed;
}

template <unsigned W, int Isa>
void StripReachabilityWorkspace<W, Isa>::AccumulateReachedCounts(
    std::uint32_t* counts) const {
  for (const NodeId v : touched_) {
    for (unsigned w = 0; w < W; ++w) {
      std::uint64_t mask = reached_[std::size_t{v} * W + w];
      while (mask != 0) {
        const unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
        ++counts[w * 64 + lane];
        mask &= mask - 1;
      }
    }
  }
}

}  // namespace infoflow
