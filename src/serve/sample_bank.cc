#include "serve/sample_bank.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "stats/rng.h"
#include "util/check.h"

namespace infoflow::serve {

Status BankOptions::Validate() const {
  if (num_states == 0) {
    return Status::InvalidArgument("bank num_states must be positive");
  }
  return chain.ValidateNumChains();
}

BankGeneration::BankGeneration(std::uint64_t id, std::uint64_t model_epoch,
                               std::size_t num_edges, std::size_t num_chains,
                               std::size_t rows_per_chain)
    : id_(id),
      model_epoch_(model_epoch),
      num_edges_(num_edges),
      num_chains_(num_chains),
      rows_per_chain_(rows_per_chain),
      num_rows_(num_chains * rows_per_chain),
      edge_major_(num_blocks() * num_edges, 0),
      strip_mutex_(std::make_unique<std::mutex>()) {}

std::shared_ptr<const StripPlane> BankGeneration::AcquireStripPlane(
    unsigned width) const {
  IF_CHECK(width == 4 || width == 8) << "unsupported strip width " << width;
  const std::size_t slot = width == 4 ? 0 : 1;
  {
    std::lock_guard<std::mutex> lock(*strip_mutex_);
    if (strip_planes_[slot]) return strip_planes_[slot];
  }
  // Interleave outside the lock; two first readers may race a duplicate
  // build and the publish keeps one winner — the plane is a pure function
  // of the immutable edge-major plane either way.
  obs::TraceSpan span("serve/bank_strip_interleave");
  WallTimer timer;
  auto plane = std::make_shared<const StripPlane>(BuildStripPlane(
      width, num_edges_, num_blocks(),
      [this](std::size_t b) { return BlockEdgeWords(b); },
      [this](std::size_t b) { return BlockLaneMask(b); }));
  obs::GetHistogram("serve.bank.strip_interleave_ms",
                    {0.1, 0.5, 2.5, 10.0, 50.0, 250.0, 1000.0})
      .Record(timer.Millis());
  std::lock_guard<std::mutex> lock(*strip_mutex_);
  if (!strip_planes_[slot]) strip_planes_[slot] = std::move(plane);
  return strip_planes_[slot];
}

PseudoState BankGeneration::UnpackRow(std::size_t r) const {
  IF_CHECK(r < num_rows_) << "row " << r << " out of range " << num_rows_;
  const std::uint64_t* words = BlockEdgeWords(r / 64);
  PseudoState state(num_edges_, 0);
  for (EdgeId e = 0; e < num_edges_; ++e) {
    state[e] = static_cast<std::uint8_t>((words[e] >> (r % 64)) & 1);
  }
  return state;
}

Result<SampleBank> SampleBank::Create(PointIcm model, BankOptions options,
                                      std::uint64_t seed) {
  IF_RETURN_NOT_OK(options.Validate());
  SampleBank bank(model.graph_ptr(), options);
  bank.model_.emplace(std::move(model));
  bank.model_shared_ = std::make_shared<const PointIcm>(*bank.model_);
  bank.base_seed_ = seed;
  bank.current_ = bank.Fill(/*id=*/1);
  bank.age_.Restart();
  return bank;
}

SampleBank::SampleBank(std::shared_ptr<const DirectedGraph> graph,
                       BankOptions options)
    : graph_(std::move(graph)),
      options_(options),
      fill_mutex_(std::make_unique<std::mutex>()),
      mutex_(std::make_unique<std::mutex>()),
      metric_generation_(&obs::GetGauge("serve.bank.generation")),
      metric_rows_(&obs::GetGauge("serve.bank.rows")),
      metric_age_s_(&obs::GetGauge("serve.bank.age_s")),
      metric_model_epoch_(&obs::GetGauge("serve.bank.model_epoch")),
      metric_refreshes_(&obs::GetCounter("serve.bank.refreshes_total")),
      metric_rebuilds_(&obs::GetCounter("serve.bank.rebuilds_total")),
      metric_fill_ms_(&obs::GetHistogram(
          "serve.bank.fill_ms",
          {1.0, 5.0, 25.0, 100.0, 500.0, 2500.0, 10000.0})) {
  std::size_t threads = options_.chain.num_threads;
  if (threads == 0) {
    threads = std::min<std::size_t>(
        options_.chain.num_chains,
        std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  }
  pool_ = std::make_unique<ThreadPool>(threads);
}

std::uint64_t SampleBank::BlockSeed(std::uint64_t seed,
                                    std::uint64_t model_epoch,
                                    std::uint64_t refresh, std::size_t block) {
  return MultiChainSampler::DeriveChainSeed(
      MultiChainSampler::DeriveChainSeed(
          MultiChainSampler::DeriveChainSeed(seed, model_epoch), refresh),
      block);
}

std::size_t SampleBank::rows_per_generation() const {
  const std::size_t k = options_.chain.num_chains;
  return k * ((options_.num_states + k - 1) / k);
}

std::shared_ptr<const BankGeneration> SampleBank::Fill(std::uint64_t id) {
  obs::TraceSpan span("serve/bank_fill");
  WallTimer timer;
  const std::size_t k = options_.chain.num_chains;
  auto generation = std::make_shared<BankGeneration>(
      BankGeneration(id, model_epoch_, graph_->num_edges(), k,
                     rows_per_generation() / k));
  generation->model_ptr_ = model_shared_;
  const std::vector<double>& probs = model_->probs();
  // Each block owns its generator and its slice of the plane, so blocks
  // fill in any order on any worker with the same bits.
  ParallelFor(*pool_, generation->num_blocks(), [&](std::size_t b) {
    Rng rng(BlockSeed(base_seed_, model_epoch_, refreshes_, b));
    const std::uint64_t lanes = generation->BlockLaneMask(b);
    std::uint64_t* words =
        generation->edge_major_.data() + b * generation->num_edges_;
    for (std::size_t e = 0; e < probs.size(); ++e) {
      words[e] = BernoulliWord(probs[e], rng) & lanes;
    }
  });
  metric_fill_ms_->Record(timer.Millis());
  metric_generation_->Set(static_cast<double>(id));
  metric_rows_->Set(static_cast<double>(generation->num_rows()));
  metric_model_epoch_->Set(static_cast<double>(model_epoch_));
  return generation;
}

void SampleBank::Publish(std::shared_ptr<const BankGeneration> next) {
  std::lock_guard<std::mutex> lock(*mutex_);
  current_ = std::move(next);
  age_.Restart();
}

std::shared_ptr<const BankGeneration> SampleBank::Acquire() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return current_;
}

void SampleBank::Refresh() {
  std::lock_guard<std::mutex> fill_lock(*fill_mutex_);
  ++refreshes_;
  Publish(Fill(Acquire()->id() + 1));
  metric_refreshes_->Increment();
  metric_age_s_->Set(0.0);
}

Status SampleBank::Rebuild(PointIcm model, std::uint64_t model_epoch) {
  if (model.graph_ptr()->num_edges() != graph_->num_edges() ||
      model.graph_ptr()->num_nodes() != graph_->num_nodes()) {
    return Status::InvalidArgument(
        "rebuild model topology mismatch: bank graph has ",
        graph_->num_nodes(), " nodes / ", graph_->num_edges(),
        " edges, model has ", model.graph_ptr()->num_nodes(), " / ",
        model.graph_ptr()->num_edges());
  }
  std::lock_guard<std::mutex> fill_lock(*fill_mutex_);
  model_.emplace(std::move(model));
  model_shared_ = std::make_shared<const PointIcm>(*model_);
  model_epoch_ = model_epoch;
  refreshes_ = 0;
  Publish(Fill(Acquire()->id() + 1));
  metric_rebuilds_->Increment();
  metric_age_s_->Set(0.0);
  return Status::OK();
}

std::uint64_t SampleBank::model_epoch() const {
  std::lock_guard<std::mutex> lock(*fill_mutex_);
  return model_epoch_;
}

double SampleBank::GenerationAgeSeconds() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  const double age = age_.Seconds();
  metric_age_s_->Set(age);
  return age;
}

}  // namespace infoflow::serve
