#include "core/embedder.h"

#include "common/check.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace hap {

namespace {

// Trace names must be string literals (the tracer stores the pointer);
// deep stacks beyond the table share the last label.
const char* LevelTraceName(size_t stage) {
  static constexpr const char* kNames[] = {
      "embed.level0", "embed.level1", "embed.level2", "embed.level3",
      "embed.level4", "embed.level5", "embed.level6", "embed.level7+"};
  constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  return kNames[stage < kCount ? stage : kCount - 1];
}

}  // namespace

std::vector<Tensor> GraphEmbedder::EmbedLevelsBatched(
    const BatchedGraph& batch) const {
  (void)batch;
  HAP_CHECK(false) << "embedder does not support batched execution; "
                      "check SupportsBatched() and fall back per graph";
  return {};
}

FlatEmbedder::FlatEmbedder(std::unique_ptr<GnnEncoder> encoder,
                           std::unique_ptr<Readout> readout)
    : encoder_(std::move(encoder)), readout_(std::move(readout)) {
  embedding_dim_ = readout_->OutFeatures(encoder_->out_features());
}

std::vector<Tensor> FlatEmbedder::EmbedLevels(const Tensor& h,
                                              const GraphLevel& level) const {
  Tensor encoded = encoder_->Forward(h, level);
  return {readout_->Forward(encoded, level)};
}

std::vector<Tensor> FlatEmbedder::EmbedLevelsBatched(
    const BatchedGraph& batch) const {
  Tensor encoded = encoder_->ForwardBatched(batch.h, batch.level);
  return {readout_->ForwardBatched(encoded, batch.level)};
}

void FlatEmbedder::CollectParameters(std::vector<Tensor>* out) const {
  encoder_->CollectParameters(out);
  readout_->CollectParameters(out);
}

HierarchicalEmbedder::HierarchicalEmbedder(
    std::vector<std::unique_ptr<GnnEncoder>> encoders,
    std::vector<std::unique_ptr<Coarsener>> coarseners)
    : encoders_(std::move(encoders)), coarseners_(std::move(coarseners)) {
  HAP_CHECK_EQ(encoders_.size(), coarseners_.size());
  HAP_CHECK(!encoders_.empty());
  embedding_dim_ = encoders_.back()->out_features();
}

std::vector<Tensor> HierarchicalEmbedder::EmbedLevels(
    const Tensor& h, const GraphLevel& level) const {
  std::vector<Tensor> levels;
  Tensor features = h;
  GraphLevel current = level;
  for (size_t stage = 0; stage < encoders_.size(); ++stage) {
    HAP_TRACE_SCOPE(LevelTraceName(stage));
    Tensor encoded = encoders_[stage]->Forward(features, current);
    CoarsenResult coarse = coarseners_[stage]->Forward(encoded, current);
    features = coarse.h;
    // The coarsener built the next level's view over A' = MᵀAM; its
    // operators are recomputed per consumer while A' carries gradient and
    // cached when it does not (eval mode).
    current = coarse.level;
    // Level embedding: mean over the coarsened clusters (collapses to the
    // cluster feature itself once N' = 1).
    levels.push_back(ReduceMeanRows(features));
  }
  return levels;
}

bool HierarchicalEmbedder::SupportsBatched() const {
  for (const auto& coarsener : coarseners_) {
    if (!coarsener->SupportsBatched()) return false;
  }
  return true;
}

std::vector<Tensor> HierarchicalEmbedder::EmbedLevelsBatched(
    const BatchedGraph& batch) const {
  std::vector<Tensor> out;
  Tensor features = batch.h;
  BatchedLevel current = batch.level;
  for (size_t stage = 0; stage < encoders_.size(); ++stage) {
    HAP_TRACE_SCOPE(LevelTraceName(stage));
    Tensor encoded = encoders_[stage]->ForwardBatched(features, current);
    BatchedCoarsenResult coarse =
        coarseners_[stage]->ForwardBatched(encoded, current);
    features = coarse.h;
    current = std::move(coarse.level);
    out.push_back(SegmentMean(features, current.segments));
  }
  return out;
}

void HierarchicalEmbedder::CollectParameters(std::vector<Tensor>* out) const {
  for (const auto& encoder : encoders_) encoder->CollectParameters(out);
  for (const auto& coarsener : coarseners_) coarsener->CollectParameters(out);
}

void HierarchicalEmbedder::set_training(bool training) {
  for (const auto& coarsener : coarseners_) coarsener->set_training(training);
}

void HierarchicalEmbedder::set_coarsen_mode(CoarsenMode mode, int topk) {
  for (const auto& coarsener : coarseners_) {
    coarsener->set_coarsen_mode(mode, topk);
  }
}

void HierarchicalEmbedder::ReseedNoise(uint64_t seed) {
  // Decorrelate the per-coarsener streams through the splitmix mixer so
  // stacked modules never share a noise sequence.
  Rng mixer(seed);
  for (const auto& coarsener : coarseners_) {
    coarsener->ReseedNoise(mixer.NextU64());
  }
}

GcnConcatEmbedder::GcnConcatEmbedder(int in_features, int hidden_dim,
                                     int num_layers, Rng* rng) {
  HAP_CHECK_GE(num_layers, 1);
  int in = in_features;
  for (int layer = 0; layer < num_layers; ++layer) {
    layers_.push_back(
        std::make_unique<GcnLayer>(in, hidden_dim, rng, Activation::kRelu));
    in = hidden_dim;
  }
  embedding_dim_ = hidden_dim * num_layers;
}

std::vector<Tensor> GcnConcatEmbedder::EmbedLevels(
    const Tensor& h, const GraphLevel& level) const {
  Tensor x = h;
  Tensor concat;
  for (const auto& layer : layers_) {
    x = layer->Forward(x, level);
    Tensor pooled = ReduceMeanRows(x);
    concat = concat.defined() ? ConcatCols(concat, pooled) : pooled;
  }
  return {concat};
}

std::vector<Tensor> GcnConcatEmbedder::EmbedLevelsBatched(
    const BatchedGraph& batch) const {
  Tensor x = batch.h;
  Tensor concat;
  for (const auto& layer : layers_) {
    x = layer->ForwardBatched(x, batch.level);
    Tensor pooled = SegmentMean(x, batch.level.segments);
    concat = concat.defined() ? ConcatCols(concat, pooled) : pooled;
  }
  return {concat};
}

void GcnConcatEmbedder::CollectParameters(std::vector<Tensor>* out) const {
  for (const auto& layer : layers_) layer->CollectParameters(out);
}

}  // namespace hap
