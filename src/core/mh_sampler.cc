#include "core/mh_sampler.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "util/check.h"

namespace infoflow {

namespace {

/// Upper bounds of the flip-index histogram: bucket i collects flips of
/// edges whose id has bit-width i (i.e. e < 2^i). bit_width of a 32-bit id
/// is 0..32, so the 33 bounds plus the registry's overflow slot match
/// MhSampler::kFlipBuckets == 34 exactly.
std::vector<double> FlipIndexBounds() {
  std::vector<double> bounds;
  bounds.reserve(33);
  for (int i = 0; i <= 32; ++i) bounds.push_back(static_cast<double>(i));
  return bounds;
}

/// Fenwick re-weigh latency buckets, nanoseconds.
std::vector<double> FenwickLatencyBounds() {
  return {25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000};
}

}  // namespace

Status MhOptions::Validate() const {
  if (burn_in > (1u << 26)) {
    return Status::InvalidArgument("burn_in ", burn_in, " unreasonably large");
  }
  if (thinning > (1u << 20)) {
    return Status::InvalidArgument("thinning ", thinning,
                                   " unreasonably large");
  }
  return Status::OK();
}

namespace {

/// BFS over edges with p > 0, recording parent edges, then activates the
/// path from `source` to `sink` in `state`. Returns false when no such path
/// exists at all.
bool ActivatePath(const PointIcm& model, NodeId source, NodeId sink,
                  PseudoState& state) {
  const DirectedGraph& graph = model.graph();
  if (source == sink) return true;
  std::vector<EdgeId> parent_edge(graph.num_nodes(), kInvalidEdge);
  std::vector<std::uint8_t> seen(graph.num_nodes(), 0);
  std::vector<NodeId> queue{source};
  seen[source] = 1;
  std::size_t head = 0;
  while (head < queue.size()) {
    const NodeId u = queue[head++];
    for (EdgeId e : graph.OutEdges(u)) {
      if (model.prob(e) <= 0.0) continue;  // cannot ever activate
      const NodeId v = graph.edge(e).dst;
      if (seen[v]) continue;
      seen[v] = 1;
      parent_edge[v] = e;
      if (v == sink) {
        // Walk back activating the path edges.
        NodeId cur = sink;
        while (cur != source) {
          const EdgeId pe = parent_edge[cur];
          state[pe] = 1;
          cur = graph.edge(pe).src;
        }
        return true;
      }
      queue.push_back(v);
    }
  }
  return false;
}

}  // namespace

Result<PseudoState> MhSampler::FindInitialState(
    const PointIcm& model, const FlowConditions& conditions,
    const MhOptions& options, Rng& rng) {
  const DirectedGraph& graph = model.graph();
  if (conditions.empty()) return model.SamplePseudoState(rng);

  ReachabilityWorkspace ws(graph);
  // Phase 1: rejection from the unconditioned marginal.
  for (std::size_t attempt = 0; attempt < options.init_rejection_tries;
       ++attempt) {
    PseudoState candidate = model.SamplePseudoState(rng);
    if (SatisfiesConditions(graph, candidate, conditions, ws)) {
      return candidate;
    }
  }
  // Phase 2: constructive repair. Start from the sparsest state consistent
  // with deterministic edges (p = 1 must stay active), then switch on one
  // path per positive constraint. Negative constraints are then re-checked:
  // an all-off background maximizes the chance they hold.
  PseudoState state(graph.num_edges(), 0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (model.prob(e) >= 1.0) state[e] = 1;
  }
  for (const FlowConstraint& c : conditions) {
    if (!c.must_flow) continue;
    if (!ActivatePath(model, c.source, c.sink, state)) {
      return Status::FailedPrecondition(
          "condition ", c.ToString(),
          " is unsatisfiable: no positive-probability path exists");
    }
  }
  if (!SatisfiesConditions(graph, state, conditions, ws)) {
    return Status::FailedPrecondition(
        "could not construct an initial state satisfying the ",
        conditions.size(),
        " flow conditions (positive paths conflict with negative "
        "constraints); conditions may have probability ~0");
  }
  return state;
}

Result<MhSampler> MhSampler::Create(PointIcm model, FlowConditions conditions,
                                    MhOptions options, Rng rng) {
  IF_RETURN_NOT_OK(options.Validate());
  IF_RETURN_NOT_OK(ValidateConditions(model.graph(), conditions));
  auto init = FindInitialState(model, conditions, options, rng);
  if (!init.ok()) return init.status();
  return MhSampler(std::move(model), std::move(conditions), options, rng,
                   std::move(init).ValueOrDie());
}

MhSampler::MhSampler(PointIcm model, FlowConditions conditions,
                     MhOptions options, Rng rng, PseudoState init)
    : model_(std::move(model)),
      conditions_(std::move(conditions)),
      options_(options),
      rng_(rng),
      state_(std::move(init)),
      // model_ (already moved into) must be used here, not the parameter.
      weights_(model_.graph().num_edges()),
      workspace_(model_.graph()),
      metric_steps_burnin_(&obs::GetCounter("mh.steps.burnin")),
      metric_steps_retained_(&obs::GetCounter("mh.steps.retained")),
      metric_steps_accepted_(&obs::GetCounter("mh.steps.accepted")),
      metric_samples_retained_(&obs::GetCounter("mh.samples_retained")),
      metric_flip_index_(
          &obs::GetHistogram("mh.flip_index_log2", FlipIndexBounds())),
      metric_fenwick_ns_(
          &obs::GetHistogram("mh.fenwick_update_ns", FenwickLatencyBounds())) {
  // Initialize the proposal multinomial: weight of flipping edge e is the
  // probability of the activity the flip would *produce*.
  for (EdgeId e = 0; e < model_.graph().num_edges(); ++e) {
    weights_.Set(e, FlipWeight(e, state_[e] != 0));
  }
}

double MhSampler::FlipWeight(EdgeId e, bool currently_active) const {
  const double p = model_.prob(e);
  // Proposing to flip e produces activity (1 - x_e): weight
  // q_e = p^{x_e} (1-p)^{1-x_e} evaluated at the *current* activity per
  // §III-C — an inactive edge is selected proportional to p (it would
  // become active), an active one proportional to (1 - p).
  return currently_active ? (1.0 - p) : p;
}

bool MhSampler::Step() {
  ++steps_;
  const double z_current = weights_.Total();
  if (z_current <= 0.0) return false;  // frozen chain: all edges deterministic

  const EdgeId e =
      options_.uniform_proposal
          ? static_cast<EdgeId>(rng_.NextBounded(model_.graph().num_edges()))
          : static_cast<EdgeId>(weights_.Sample(rng_));
  if constexpr (obs::MetricsEnabled()) {
    // 1-in-8 sampled flip recording (scaled back up at publish, statsd
    // style): one predictable branch per step keeps the chain at its
    // uninstrumented throughput, and the histogram only needs the *shape*
    // of the flip-index distribution, not exact counts. Aggregation is
    // local (this chain is single-threaded); PublishStepStats drains into
    // the registry once per retained sample.
    if ((steps_ & 7u) == 0) {
      ++flip_counts_[std::bit_width(static_cast<std::uint32_t>(e))];
    }
  }
  const bool was_active = state_[e] != 0;
  const double p = model_.prob(e);

  // Weights of this flip in the current state and of the reverse flip in
  // the candidate state.
  const double w_forward = was_active ? (1.0 - p) : p;
  const double w_backward = was_active ? p : (1.0 - p);
  // Z' = Z + (-1)^{x_e} (1 - 2 p_e): flipping e swaps its proposal weight.
  const double z_candidate = z_current - w_forward + w_backward;

  // Weighted proposal: p_ratio = w_fwd/w_bwd and q_ratio =
  // (w_fwd/w_bwd)·(Z'/Z), so the acceptance ratio collapses to Z/Z' — see
  // the header derivation. Uniform proposal: q_ratio = 1 and the density
  // ratio stands alone.
  const double ratio = options_.uniform_proposal
                           ? w_forward / w_backward
                           : z_current / z_candidate;
  if (ratio < 1.0 && rng_.NextDouble() > ratio) return false;

  // Candidate passes the Hastings test; enforce I(x', C) (Eq. 7): a
  // violating candidate has zero posterior probability, so it is rejected.
  state_[e] = was_active ? 0 : 1;
  if (!conditions_.empty() &&
      !SatisfiesConditions(model_.graph(), state_, conditions_, workspace_)) {
    state_[e] = was_active ? 1 : 0;  // roll back
    return false;
  }
  weights_.Set(e, w_backward);
  ++accepted_;
  return true;
}

void MhSampler::PublishStepStats() {
  metric_steps_burnin_->Increment(pending_burnin_steps_);
  metric_steps_retained_->Increment(pending_retained_steps_);
  metric_steps_accepted_->Increment(accepted_ - published_accepted_);
  published_accepted_ = accepted_;
  metric_samples_retained_->Increment(pending_samples_);
  pending_burnin_steps_ = 0;
  pending_retained_steps_ = 0;
  pending_samples_ = 0;
  // Scale the 1-in-8 sampled flip counts back to step units; the sum is
  // exactly recoverable from the buckets because bucket i holds only flips
  // whose recorded value is i.
  std::array<std::uint64_t, kFlipBuckets> scaled;
  double flip_sum = 0.0;
  for (std::size_t i = 0; i < flip_counts_.size(); ++i) {
    scaled[i] = flip_counts_[i] * 8;
    flip_sum += static_cast<double>(i) * static_cast<double>(scaled[i]);
  }
  metric_flip_index_->AddBatch(scaled.data(), scaled.size(), flip_sum);
  flip_counts_.fill(0);
  // Time one idempotent Fenwick re-weigh on every 8th publish, off the
  // per-step path. Set walks the full update path whatever the delta (it
  // embeds a Get), so a same-value Set on a rotating probe edge has the
  // exact cost profile of the re-weigh an accepted flip performs in Step;
  // throttling keeps the amortized clock cost below a nanosecond per step
  // while still recording hundreds of latencies per realistic query.
  if ((publishes_++ & 7u) == 0 && model_.graph().num_edges() > 0) {
    const auto probe = static_cast<EdgeId>(
        steps_ % static_cast<std::uint64_t>(model_.graph().num_edges()));
    const double w = weights_.Get(probe);
    const auto begin = std::chrono::steady_clock::now();
    weights_.Set(probe, w);
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    metric_fenwick_ns_->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
}

void MhSampler::FlushMetrics() {
  if constexpr (obs::MetricsEnabled()) {
    if (pending_samples_ > 0 || accepted_ != published_accepted_) {
      PublishStepStats();
    }
  }
}

void MhSampler::Reseed(Rng rng) {
  FlushMetrics();  // don't lose work already done under the old stream
  rng_ = rng;
  burned_in_ = false;
  steps_ = 0;
  accepted_ = 0;
  published_accepted_ = 0;
  flip_counts_.fill(0);
}

const PseudoState& MhSampler::NextSample() {
  const bool burn_in_phase = !burned_in_;
  std::uint64_t steps_run = 0;
  if (!burned_in_) {
    for (std::size_t i = 0; i < options_.burn_in; ++i) Step();
    steps_run = options_.burn_in;
    burned_in_ = true;
  } else {
    for (std::size_t i = 0; i <= options_.thinning; ++i) Step();
    steps_run = options_.thinning + 1;
  }
  if constexpr (obs::MetricsEnabled()) {
    // Aggregate locally; drain to the registry every kPublishInterval-th
    // sample (FlushMetrics at estimate boundaries catches the remainder).
    (burn_in_phase ? pending_burnin_steps_ : pending_retained_steps_) +=
        steps_run;
    if (++pending_samples_ >= kPublishInterval) PublishStepStats();
  }
  return state_;
}

double MhSampler::EstimateFlowProbability(NodeId source, NodeId sink,
                                          std::size_t num_samples) {
  IF_CHECK(num_samples > 0) << "need at least one sample";
  const DirectedGraph& graph = model_.graph();
  IF_CHECK(source < graph.num_nodes() && sink < graph.num_nodes());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < num_samples; ++i) {
    const PseudoState& x = NextSample();
    if (workspace_.RunUntil(graph, {source}, x, sink)) ++hits;
  }
  FlushMetrics();
  return static_cast<double>(hits) / static_cast<double>(num_samples);
}

std::vector<double> MhSampler::EstimateCommunityFlow(
    NodeId source, const std::vector<NodeId>& sinks,
    std::size_t num_samples) {
  return EstimateCommunityFlowMulti({source}, sinks, num_samples);
}

std::vector<double> MhSampler::EstimateCommunityFlowMulti(
    const std::vector<NodeId>& sources, const std::vector<NodeId>& sinks,
    std::size_t num_samples) {
  IF_CHECK(num_samples > 0) << "need at least one sample";
  IF_CHECK(!sources.empty()) << "need at least one source";
  const DirectedGraph& graph = model_.graph();
  std::vector<std::size_t> hits(sinks.size(), 0);
  for (std::size_t i = 0; i < num_samples; ++i) {
    const PseudoState& x = NextSample();
    workspace_.Run(graph, sources, x);
    for (std::size_t j = 0; j < sinks.size(); ++j) {
      if (workspace_.IsReached(sinks[j])) ++hits[j];
    }
  }
  FlushMetrics();
  std::vector<double> out(sinks.size());
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    out[j] =
        static_cast<double>(hits[j]) / static_cast<double>(num_samples);
  }
  return out;
}

double MhSampler::EstimateJointFlowProbability(const FlowConditions& flows,
                                               std::size_t num_samples) {
  IF_CHECK(num_samples > 0) << "need at least one sample";
  ValidateConditions(model_.graph(), flows).CheckOK();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < num_samples; ++i) {
    const PseudoState& x = NextSample();
    if (SatisfiesConditions(model_.graph(), x, flows, workspace_)) ++hits;
  }
  FlushMetrics();
  return static_cast<double>(hits) / static_cast<double>(num_samples);
}

std::vector<std::uint32_t> MhSampler::SampleDispersion(
    NodeId source, std::size_t num_samples) {
  IF_CHECK(num_samples > 0) << "need at least one sample";
  const DirectedGraph& graph = model_.graph();
  IF_CHECK(source < graph.num_nodes());
  std::vector<std::uint32_t> counts;
  counts.reserve(num_samples);
  for (std::size_t i = 0; i < num_samples; ++i) {
    const PseudoState& x = NextSample();
    workspace_.Run(graph, {source}, x);
    // Reached nodes minus the source itself.
    counts.push_back(
        static_cast<std::uint32_t>(workspace_.ReachedNodes().size() - 1));
  }
  FlushMetrics();
  return counts;
}

}  // namespace infoflow
