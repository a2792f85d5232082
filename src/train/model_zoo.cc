#include "train/model_zoo.h"

#include <algorithm>

#include "common/check.h"
#include "pooling/asap.h"
#include "pooling/attpool.h"
#include "pooling/diffpool.h"
#include "pooling/flat.h"
#include "pooling/mincut.h"
#include "pooling/set2set.h"
#include "pooling/structpool.h"
#include "pooling/topk.h"

namespace hap {

namespace {

std::unique_ptr<GnnEncoder> Encoder(int in, int hidden, Rng* rng,
                                    EncoderKind kind = EncoderKind::kGcn) {
  return std::make_unique<GnnEncoder>(kind,
                                      std::vector<int>{in, hidden, hidden},
                                      rng);
}

/// Two-stage hierarchy (mirroring HAP's skeleton) around arbitrary
/// coarseners.
std::unique_ptr<GraphEmbedder> Hierarchy(int in, int hidden, Rng* rng,
                                         std::unique_ptr<Coarsener> first,
                                         std::unique_ptr<Coarsener> second) {
  std::vector<std::unique_ptr<GnnEncoder>> encoders;
  encoders.push_back(Encoder(in, hidden, rng));
  encoders.push_back(Encoder(hidden, hidden, rng));
  std::vector<std::unique_ptr<Coarsener>> coarseners;
  coarseners.push_back(std::move(first));
  coarseners.push_back(std::move(second));
  return std::make_unique<HierarchicalEmbedder>(std::move(encoders),
                                                std::move(coarseners));
}

}  // namespace

const std::vector<std::string>& ClassifierMethodNames() {
  static const std::vector<std::string> kNames = {
      "GCN-concat", "SumPool",        "MeanPool",       "MeanAttPool",
      "Set2Set",    "SortPooling",    "AttPool-global", "AttPool-local",
      "gPool",      "SAGPool",        "DiffPool",       "ASAP",
      "StructPool", "HAP"};
  return kNames;
}

bool IsKnownMethod(const std::string& name) {
  const auto& names = ClassifierMethodNames();
  if (std::find(names.begin(), names.end(), name) != names.end()) return true;
  return name == "HAP-GAT" || name == "MinCutPool";
}

HapConfig DefaultHapConfig(int feature_dim, int hidden) {
  HapConfig config;
  config.feature_dim = feature_dim;
  config.hidden_dim = hidden;
  config.encoder_layers = 2;
  config.cluster_sizes = {8, 1};
  return config;
}

std::unique_ptr<GraphEmbedder> MakeEmbedderByName(const std::string& name,
                                                  int feature_dim, int hidden,
                                                  Rng* rng) {
  if (name == "GCN-concat") {
    return std::make_unique<GcnConcatEmbedder>(feature_dim, hidden, 2, rng);
  }
  if (name == "SumPool") {
    // The SumPool row of Table 3 is the GIN architecture [36]: sum
    // aggregation layers + sum readout.
    return std::make_unique<FlatEmbedder>(
        Encoder(feature_dim, hidden, rng, EncoderKind::kGin),
        std::make_unique<SumReadout>());
  }
  if (name == "MeanPool") {
    return std::make_unique<FlatEmbedder>(Encoder(feature_dim, hidden, rng),
                                          std::make_unique<MeanReadout>());
  }
  if (name == "MeanAttPool") {
    return std::make_unique<FlatEmbedder>(
        Encoder(feature_dim, hidden, rng),
        std::make_unique<MeanAttReadout>(hidden, rng));
  }
  if (name == "Set2Set") {
    return std::make_unique<FlatEmbedder>(
        Encoder(feature_dim, hidden, rng),
        std::make_unique<Set2SetReadout>(hidden, rng));
  }
  if (name == "SortPooling") {
    return std::make_unique<FlatEmbedder>(
        Encoder(feature_dim, hidden, rng),
        std::make_unique<SortPoolReadout>(10));
  }
  if (name == "AttPool-global" || name == "AttPool-local") {
    const auto mode = name == "AttPool-global"
                          ? AttPoolCoarsener::Mode::kGlobal
                          : AttPoolCoarsener::Mode::kLocal;
    return Hierarchy(
        feature_dim, hidden, rng,
        std::make_unique<AttPoolCoarsener>(hidden, 0.5, mode, rng),
        std::make_unique<AttPoolCoarsener>(hidden, 0.5, mode, rng));
  }
  if (name == "gPool") {
    return Hierarchy(feature_dim, hidden, rng,
                     std::make_unique<GPoolCoarsener>(hidden, 0.5, rng),
                     std::make_unique<GPoolCoarsener>(hidden, 0.5, rng));
  }
  if (name == "SAGPool") {
    return Hierarchy(feature_dim, hidden, rng,
                     std::make_unique<SagPoolCoarsener>(hidden, 0.5, rng),
                     std::make_unique<SagPoolCoarsener>(hidden, 0.5, rng));
  }
  if (name == "DiffPool") {
    return Hierarchy(feature_dim, hidden, rng,
                     std::make_unique<DiffPoolCoarsener>(hidden, 8, rng),
                     std::make_unique<DiffPoolCoarsener>(hidden, 1, rng));
  }
  if (name == "ASAP") {
    return Hierarchy(feature_dim, hidden, rng,
                     std::make_unique<AsapCoarsener>(hidden, 0.5, rng),
                     std::make_unique<AsapCoarsener>(hidden, 0.5, rng));
  }
  if (name == "StructPool") {
    return Hierarchy(feature_dim, hidden, rng,
                     std::make_unique<StructPoolCoarsener>(hidden, 8, rng),
                     std::make_unique<StructPoolCoarsener>(hidden, 1, rng));
  }
  if (name == "MinCutPool") {
    // The generic classification head trains on the task loss alone;
    // MinCutPoolCoarsener::AuxiliaryLoss (the cut/orthogonality terms) is
    // computed only by a caller that adds it, never by Forward.
    return Hierarchy(feature_dim, hidden, rng,
                     std::make_unique<MinCutPoolCoarsener>(hidden, 8, rng),
                     std::make_unique<MinCutPoolCoarsener>(hidden, 1, rng));
  }
  if (name == "HAP" || name == "HAP-GAT") {
    // Sec. 6.2: "we try GAT and GCN for node & cluster embedding operation
    // and report the better accuracy" — benches train both names and keep
    // the max.
    HapConfig config = DefaultHapConfig(feature_dim, hidden);
    if (name == "HAP-GAT") config.encoder = EncoderKind::kGat;
    return MakeHapModel(config, rng);
  }
  HAP_CHECK(false) << "unknown method: " << name;
  return nullptr;
}

}  // namespace hap
