/// \file sample_bank.h
/// \brief A shared bank of i.i.d. pseudo-states for amortized queries.
///
/// Answering a flow query with a fresh chain pays burn-in δ plus
/// (δ′+1)·N transitions *per query* (§III-B/D). But the estimator of Eq. 5
/// only replays reachability over draws of Pr[x | M], whichever flow the
/// caller later asks about. A SampleBank therefore draws those states once
/// and lets arbitrarily many queries (end-to-end, community, joint,
/// conditional — see serve/query_engine.h) reuse them, turning the
/// per-query cost into a per-*bank* cost.
///
/// Unconditionally, Eq. 3 makes Pr[x | M] a product of independent edge
/// Bernoullis, so the bank needs no Markov chain: every row is an exact,
/// independent draw. Rows are stored once, **edge-major**: they are
/// grouped into blocks of 64 and, per block, each edge stores one word
/// whose bit s is the edge's activity in the block's row s — the layout
/// graph/batch_reachability.h consumes to answer reachability for 64 rows
/// in a single BFS pass. A fill writes that plane directly: block b draws
/// every edge's word with BernoulliWord (stats/rng.h) from its own
/// generator, keyed by (seed, model epoch, refreshes within that epoch,
/// b) through SampleBank::BlockSeed. The blocks are drawn in parallel on
/// the bank's pool, and a generation is bit-identical for every pool size;
/// a daemon restarted on the same evidence redraws the same rows. A
/// 14k-edge fig6 graph packs 4096 rows into ~7 MB.
///
/// Rows are also split into K equal, consecutive *row streams* (K =
/// `BankOptions::chain.num_chains`; stream k holds rows [k·R, (k+1)·R)).
/// The streams are as independent as the rows; they only give split-R̂
/// (stats/convergence.h) its sequences, so a served estimate keeps the
/// same diagnostics shape as the paper's multi-chain sampler.
///
/// Generations: the bank hands out immutable `BankGeneration` objects by
/// shared_ptr. `Refresh()` draws fresh rows and publishes a new
/// generation; readers holding the old one are never invalidated — the
/// swap is a pointer exchange under a mutex, and the old rows are freed
/// when the last in-flight reader drops them.
///
/// \code
///   auto bank = SampleBank::Create(model, options, /*seed=*/42);
///   std::shared_ptr<const BankGeneration> gen = bank->Acquire();
///   // ... answer many queries against *gen ...
///   bank->Refresh();            // background thread; readers unaffected
/// \endcode

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/icm.h"
#include "core/multi_chain.h"
#include "graph/strip_plane.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoflow::serve {

/// \brief Sizing and fill parallelism for a SampleBank.
struct BankOptions {
  /// Requested rows per generation. Rounded up to a whole number per row
  /// stream, so the realized row count is num_chains·⌈num_states/num_chains⌉.
  std::size_t num_states = 4096;
  /// `num_chains` is the row-stream count K; `num_threads` sizes the fill
  /// pool (0 → min(K, hardware concurrency)) and never changes the rows.
  /// The rows are exact draws, so `mh` (burn-in, thinning) is ignored.
  MultiChainOptions chain;

  /// Validates the option values.
  Status Validate() const;
};

/// \brief One immutable, generation-tagged snapshot of bank rows.
///
/// Thread-safe by construction (all members const after fill); readers on
/// any thread may BFS over rows concurrently.
class BankGeneration {
 public:
  /// Monotonic generation id (1 for the Create fill, +1 per Refresh).
  std::uint64_t id() const { return id_; }
  /// Id of the model epoch the rows were drawn from (1 = the model the
  /// bank was created with; bumped by Rebuild on streaming model updates).
  std::uint64_t model_epoch() const { return model_epoch_; }
  /// Number of rows.
  std::size_t num_rows() const { return num_rows_; }
  /// Edge count of the model the rows were drawn from.
  std::size_t num_edges() const { return num_edges_; }
  /// Number of row streams the rows are split into.
  std::size_t num_chains() const { return num_chains_; }
  /// Rows per stream (num_rows / num_chains; streams are equal-length).
  std::size_t rows_per_chain() const { return rows_per_chain_; }

  /// Number of 64-row sample blocks: ⌈num_rows / 64⌉. Block b covers rows
  /// [64·b, min(64·(b+1), num_rows)).
  std::size_t num_blocks() const { return (num_rows_ + 63) / 64; }

  /// Valid-lane mask of block `b`: bit s set iff row 64·b + s exists. All
  /// ones for every block except possibly the last (ragged tail when
  /// num_rows is not a multiple of 64).
  std::uint64_t BlockLaneMask(std::size_t b) const {
    const std::size_t rows = num_rows_ - b * 64;
    return rows >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rows) - 1;
  }

  /// Edge-major plane of block `b`: num_edges() words, word e's bit s =
  /// edge e's activity in row 64·b + s — the form
  /// BatchReachabilityWorkspace consumes directly. Bits beyond the lane
  /// mask are zero.
  const std::uint64_t* BlockEdgeWords(std::size_t b) const {
    return edge_major_.data() + b * num_edges_;
  }

  /// \brief Strip-major plane for `width`-word strips (width ∈ {4, 8}; the
  /// 64-lane path reads BlockEdgeWords directly). Word
  /// `[(s·num_edges + e)·width + w]` is block s·width+w's word e, so one
  /// StripReachabilityWorkspace pass replays 64·width rows.
  ///
  /// Built lazily on first use by interleaving the per-block edge-major
  /// plane (a word gather — no bit transpose) and cached per width for
  /// the generation's lifetime: the plane is immutable after publish and
  /// handed out by shared_ptr swap under an internal mutex, so every query
  /// engine sharing this generation re-uses one plane instead of
  /// re-interleaving per width choice, and readers keep their plane across
  /// concurrent Refresh generations (same RCU discipline as the generation
  /// itself). Thread-safe.
  std::shared_ptr<const StripPlane> AcquireStripPlane(unsigned width) const;

  /// \brief The model the rows were drawn from — the generation-consistent
  /// snapshot the analytic query backend computes against (answers from one
  /// generation always use the model that produced its rows, even while a
  /// drift rebuild is publishing a newer epoch). Never null for bank-filled
  /// generations.
  const PointIcm* model() const { return model_ptr_.get(); }

  /// Unpacks row `r` into a byte-per-edge PseudoState (tests, debugging).
  PseudoState UnpackRow(std::size_t r) const;

 private:
  friend class SampleBank;
  BankGeneration(std::uint64_t id, std::uint64_t model_epoch,
                 std::size_t num_edges, std::size_t num_chains,
                 std::size_t rows_per_chain);

  std::uint64_t id_;
  std::uint64_t model_epoch_;
  std::size_t num_edges_;
  std::size_t num_chains_;
  std::size_t rows_per_chain_;
  std::size_t num_rows_;

  /// The epoch's model, shared with the owning bank (see model()).
  std::shared_ptr<const PointIcm> model_ptr_;
  /// Edge-major packed bits: edge_major_[b·num_edges + e] bit s = edge e's
  /// activity in row 64·b + s.
  std::vector<std::uint64_t> edge_major_;

  /// Lazily built strip planes, slot 0 → width 4, slot 1 → width 8 (see
  /// AcquireStripPlane). The mutex lives behind unique_ptr so the
  /// generation stays movable during construction; each cached plane costs
  /// another edge_major_-sized footprint, paid only for widths served.
  mutable std::unique_ptr<std::mutex> strip_mutex_;
  mutable std::shared_ptr<const StripPlane> strip_planes_[2];
};

/// \brief Owner of the model, the fill pool and the current generation.
///
/// Thread-safety: `Acquire()` and `GenerationAgeSeconds()` may be called
/// from any thread; `Refresh()` and `Rebuild()` serialize against each
/// other (the serve daemon drives them from its refresh and drift-rebuild
/// threads).
class SampleBank {
 public:
  /// \brief Fills generation 1 from `model`.
  /// Unconditional by design: rows sample Pr[x | M] (Eq. 3) so conditional
  /// queries can be answered by filtering rows with I(x, C) (Eq. 7/8)
  /// instead of binding the bank to one condition set.
  static Result<SampleBank> Create(PointIcm model, BankOptions options,
                                   std::uint64_t seed);

  /// The seed of block `block`'s generator in the fill that follows
  /// `refresh` Refresh() calls on model epoch `model_epoch` of a bank
  /// created with `seed`: MultiChainSampler::DeriveChainSeed (a SplitMix64
  /// finalizer) folded over the epoch, the refresh count and the block.
  /// Exposed so tests can pin the contract.
  static std::uint64_t BlockSeed(std::uint64_t seed, std::uint64_t model_epoch,
                                 std::uint64_t refresh, std::size_t block);

  /// The current generation; never null, never mutated after publish.
  std::shared_ptr<const BankGeneration> Acquire() const;

  /// \brief Draws a fresh set of rows from the current model and
  /// atomically publishes it as the next generation.
  void Refresh();

  /// \brief Replaces the model the rows sample from (a streamed
  /// ModelEpoch) and publishes the next generation, tagged with
  /// `model_epoch`, drawn from it. The refresh count restarts at 0, so the
  /// rows depend only on (seed, model_epoch) — a daemon restarted on the
  /// same evidence redraws the same rows. In-flight readers of older
  /// generations are never blocked or invalidated. Serialized against
  /// Refresh().
  Status Rebuild(PointIcm model, std::uint64_t model_epoch);

  /// The model the rows are currently drawn from.
  const PointIcm& model() const { return *model_; }

  /// Model-epoch id of the current model (1 until the first Rebuild).
  std::uint64_t model_epoch() const;

  /// Seconds since the current generation was published.
  double GenerationAgeSeconds() const;

  /// The model's graph (shared with every generation's rows).
  const std::shared_ptr<const DirectedGraph>& graph_ptr() const {
    return graph_;
  }

  /// Realized rows per generation (num_chains·⌈num_states/num_chains⌉).
  std::size_t rows_per_generation() const;

 private:
  SampleBank(std::shared_ptr<const DirectedGraph> graph, BankOptions options);

  /// Draws one generation's plane from the current model, 64-row blocks
  /// in parallel on `pool_`.
  std::shared_ptr<const BankGeneration> Fill(std::uint64_t id);

  /// Publishes `next` as the current generation.
  void Publish(std::shared_ptr<const BankGeneration> next);

  std::shared_ptr<const DirectedGraph> graph_;
  BankOptions options_;
  /// The model the rows are drawn from (kept for drift diffs and rebuild
  /// validation); optional only because PointIcm lacks a default
  /// constructor — set at Create, never empty afterwards.
  std::optional<PointIcm> model_;
  /// The same model as a shared snapshot, stamped onto every generation
  /// Fill publishes (guarded by fill_mutex_ like model_).
  std::shared_ptr<const PointIcm> model_shared_;
  /// The Create seed; every block seed derives from it.
  std::uint64_t base_seed_ = 0;
  /// Model epoch of the current model.
  std::uint64_t model_epoch_ = 1;
  /// Refresh() calls since the current model was installed.
  std::uint64_t refreshes_ = 0;
  /// Draws the blocks of a fill.
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes fills (Refresh vs Rebuild race from the serve daemon's
  /// refresh and drift-rebuild threads).
  std::unique_ptr<std::mutex> fill_mutex_;
  /// Guards current_/age_; unique_ptr keeps the bank movable (Result<T>).
  std::unique_ptr<std::mutex> mutex_;
  std::shared_ptr<const BankGeneration> current_;
  /// Restarted at each publish; read for the generation-age gauge.
  WallTimer age_;

  obs::Gauge* metric_generation_;
  obs::Gauge* metric_rows_;
  obs::Gauge* metric_age_s_;
  obs::Gauge* metric_model_epoch_;
  obs::Counter* metric_refreshes_;
  obs::Counter* metric_rebuilds_;
  obs::Histogram* metric_fill_ms_;
};

}  // namespace infoflow::serve
