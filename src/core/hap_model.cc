#include "core/hap_model.h"

#include "common/check.h"
#include "pooling/diffpool.h"
#include "pooling/flat.h"
#include "pooling/topk.h"

namespace hap {

std::string CoarsenerKindName(CoarsenerKind kind) {
  switch (kind) {
    case CoarsenerKind::kHap:
      return "HAP";
    case CoarsenerKind::kMeanPool:
      return "HAP-MeanPool";
    case CoarsenerKind::kMeanAttPool:
      return "HAP-MeanAttPool";
    case CoarsenerKind::kSagPool:
      return "HAP-SAGPool";
    case CoarsenerKind::kDiffPool:
      return "HAP-DiffPool";
  }
  return "unknown";
}

ReadoutCoarsener::ReadoutCoarsener(std::unique_ptr<Readout> readout)
    : readout_(std::move(readout)) {}

CoarsenResult ReadoutCoarsener::Forward(const Tensor& h,
                                        const GraphLevel& level) const {
  Tensor pooled = readout_->Forward(h, level);
  HAP_CHECK_EQ(pooled.rows(), 1);
  return {std::move(pooled), GraphLevel(Tensor::Ones(1, 1))};
}

void ReadoutCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  readout_->CollectParameters(out);
}

namespace {

std::vector<int> EncoderDims(int in, int hidden, int layers) {
  std::vector<int> dims(layers + 1, hidden);
  dims[0] = in;
  return dims;
}

std::unique_ptr<HierarchicalEmbedder> BuildHierarchy(
    CoarsenerKind kind, const HapConfig& config, Rng* rng) {
  HAP_CHECK(!config.cluster_sizes.empty());
  std::vector<std::unique_ptr<GnnEncoder>> encoders;
  std::vector<std::unique_ptr<Coarsener>> coarseners;
  int in = config.feature_dim;
  for (int clusters : config.cluster_sizes) {
    encoders.push_back(std::make_unique<GnnEncoder>(
        config.encoder,
        EncoderDims(in, config.hidden_dim, config.encoder_layers), rng));
    switch (kind) {
      case CoarsenerKind::kHap: {
        CoarseningConfig cc = config.moa_prototype;
        cc.in_features = config.hidden_dim;
        cc.num_clusters = clusters;
        cc.use_gcont = config.use_gcont;
        cc.use_gumbel = config.use_gumbel;
        cc.tau = config.tau;
        coarseners.push_back(std::make_unique<CoarseningModule>(cc, rng));
        break;
      }
      case CoarsenerKind::kMeanPool:
        coarseners.push_back(std::make_unique<ReadoutCoarsener>(
            std::make_unique<MeanReadout>()));
        break;
      case CoarsenerKind::kMeanAttPool:
        coarseners.push_back(std::make_unique<ReadoutCoarsener>(
            std::make_unique<MeanAttReadout>(config.hidden_dim, rng)));
        break;
      case CoarsenerKind::kSagPool:
        coarseners.push_back(
            std::make_unique<SagPoolCoarsener>(config.hidden_dim, 0.5, rng));
        break;
      case CoarsenerKind::kDiffPool:
        coarseners.push_back(
            std::make_unique<DiffPoolCoarsener>(config.hidden_dim, clusters, rng));
        break;
    }
    in = config.hidden_dim;
  }
  return std::make_unique<HierarchicalEmbedder>(std::move(encoders),
                                                std::move(coarseners));
}

}  // namespace

std::unique_ptr<HierarchicalEmbedder> MakeHapModel(const HapConfig& config,
                                                   Rng* rng) {
  return BuildHierarchy(CoarsenerKind::kHap, config, rng);
}

std::unique_ptr<HierarchicalEmbedder> MakeHapVariant(CoarsenerKind kind,
                                                     const HapConfig& config,
                                                     Rng* rng) {
  return BuildHierarchy(kind, config, rng);
}

}  // namespace hap
