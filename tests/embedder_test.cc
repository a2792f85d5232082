#include "core/embedder.h"

#include <gtest/gtest.h>

#include "core/hap_model.h"
#include "graph/generators.h"
#include "pooling/flat.h"
#include "tensor/ops.h"

namespace hap {
namespace {

HapConfig SmallConfig() {
  HapConfig config;
  config.feature_dim = 5;
  config.hidden_dim = 8;
  config.encoder_layers = 2;
  config.cluster_sizes = {4, 1};
  return config;
}

TEST(FlatEmbedderTest, SingleLevel) {
  Rng rng(1);
  auto embedder = std::make_unique<FlatEmbedder>(
      std::make_unique<GnnEncoder>(EncoderKind::kGcn,
                                   std::vector<int>{5, 8}, &rng),
      std::make_unique<SumReadout>());
  Graph g = Cycle(6);
  auto levels = embedder->EmbedLevels(Tensor::Randn(6, 5, &rng),
                                      GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0].cols(), 8);
  EXPECT_EQ(embedder->embedding_dim(), 8);
}

TEST(HapModelTest, LevelsMatchClusterSchedule) {
  Rng rng(2);
  auto model = MakeHapModel(SmallConfig(), &rng);
  EXPECT_EQ(model->num_levels(), 2);
  Graph g = ConnectedErdosRenyi(10, 0.4, &rng);
  auto levels = model->EmbedLevels(Tensor::Randn(10, 5, &rng),
                                   GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(levels.size(), 2u);
  for (const Tensor& level : levels) {
    EXPECT_EQ(level.rows(), 1);
    EXPECT_EQ(level.cols(), 8);
  }
}

TEST(HapModelTest, EmbedIsFinalLevel) {
  Rng rng(3);
  auto model = MakeHapModel(SmallConfig(), &rng);
  model->set_training(false);
  Graph g = ConnectedErdosRenyi(9, 0.4, &rng);
  Tensor h = Tensor::Randn(9, 5, &rng);
  Tensor embed = model->Embed(h, GraphLevel(g.AdjacencyMatrix()));
  auto levels = model->EmbedLevels(h, GraphLevel(g.AdjacencyMatrix()));
  for (int c = 0; c < 8; ++c) {
    EXPECT_NEAR(embed.At(0, c), levels.back().At(0, c), 1e-5);
  }
}

TEST(HapModelTest, PermutationInvariantGraphEmbedding) {
  Rng rng(4);
  HapConfig config = SmallConfig();
  config.use_gumbel = false;  // Determinism for the invariance check.
  auto model = MakeHapModel(config, &rng);
  model->set_training(false);
  Graph g = ConnectedErdosRenyi(8, 0.5, &rng);
  Tensor h = Tensor::Randn(8, 5, &rng);
  Tensor base = model->Embed(h, GraphLevel(g.AdjacencyMatrix()));
  std::vector<int> perm = RandomPermutation(8, &rng);
  Graph pg = g.Permuted(perm);
  Tensor ph(8, 5);
  for (int u = 0; u < 8; ++u) {
    for (int c = 0; c < 5; ++c) ph.Set(perm[u], c, h.At(u, c));
  }
  Tensor permuted = model->Embed(ph, GraphLevel(pg.AdjacencyMatrix()));
  for (int c = 0; c < 8; ++c) {
    EXPECT_NEAR(base.At(0, c), permuted.At(0, c), 1e-3);
  }
}

TEST(HapVariantTest, AllVariantsProduceLevels) {
  Rng rng(5);
  Graph g = ConnectedErdosRenyi(10, 0.4, &rng);
  Tensor h = Tensor::Randn(10, 5, &rng);
  for (CoarsenerKind kind :
       {CoarsenerKind::kHap, CoarsenerKind::kMeanPool,
        CoarsenerKind::kMeanAttPool, CoarsenerKind::kSagPool,
        CoarsenerKind::kDiffPool}) {
    auto model = MakeHapVariant(kind, SmallConfig(), &rng);
    auto levels = model->EmbedLevels(h, GraphLevel(g.AdjacencyMatrix()));
    EXPECT_EQ(levels.size(), 2u) << CoarsenerKindName(kind);
    EXPECT_EQ(levels.back().cols(), 8) << CoarsenerKindName(kind);
  }
}

TEST(HapVariantTest, NamesAreStable) {
  EXPECT_EQ(CoarsenerKindName(CoarsenerKind::kHap), "HAP");
  EXPECT_EQ(CoarsenerKindName(CoarsenerKind::kMeanPool), "HAP-MeanPool");
  EXPECT_EQ(CoarsenerKindName(CoarsenerKind::kDiffPool), "HAP-DiffPool");
}

TEST(GcnConcatTest, ConcatenatesLayerReadouts) {
  Rng rng(6);
  GcnConcatEmbedder embedder(5, 8, 2, &rng);
  EXPECT_EQ(embedder.embedding_dim(), 16);
  Graph g = Cycle(5);
  auto levels = embedder.EmbedLevels(Tensor::Randn(5, 5, &rng),
                                     GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0].cols(), 16);
}

TEST(HapModelTest, ParameterCountPositiveAndTrainable) {
  Rng rng(7);
  auto model = MakeHapModel(SmallConfig(), &rng);
  EXPECT_GT(model->NumParameters(), 100);
  Graph g = ConnectedErdosRenyi(7, 0.5, &rng);
  Tensor loss = ReduceSumAll(Square(model->Embed(
      Tensor::Randn(7, 5, &rng), GraphLevel(g.AdjacencyMatrix()))));
  loss.Backward();
  int with_grad = 0;
  for (const Tensor& p : model->Parameters()) {
    bool any = false;
    for (float v : p.grad()) any |= v != 0.0f;
    with_grad += any;
  }
  // Most parameters must receive gradient (final-level coarsening can
  // leave some unused paths, but the bulk participates).
  EXPECT_GT(with_grad, static_cast<int>(model->Parameters().size()) / 2);
}

}  // namespace
}  // namespace hap
