#include "matching/gmn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tensor/ops.h"

namespace hap {
namespace {

GmnConfig SmallConfig() {
  GmnConfig config;
  config.feature_dim = 4;
  config.hidden_dim = 8;
  config.layers = 2;
  return config;
}

TEST(GmnTest, EmbeddingShapes) {
  Rng rng(1);
  GmnModel model(SmallConfig(), GmnModel::Pooling::kGatedSum, &rng);
  Graph g1 = ConnectedErdosRenyi(7, 0.4, &rng);
  Graph g2 = ConnectedErdosRenyi(9, 0.4, &rng);
  auto [e1, e2] = model.EmbedPair(
      Tensor::Randn(7, 4, &rng), GraphLevel(g1.AdjacencyMatrix()),
      Tensor::Randn(9, 4, &rng), GraphLevel(g2.AdjacencyMatrix()));
  EXPECT_EQ(e1.rows(), 1);
  EXPECT_EQ(e1.cols(), 8);
  EXPECT_EQ(e2.cols(), 8);
}

TEST(GmnTest, IdenticalPairEmbedsIdentically) {
  Rng rng(2);
  GmnModel model(SmallConfig(), GmnModel::Pooling::kGatedSum, &rng);
  Graph g = ConnectedErdosRenyi(6, 0.5, &rng);
  Tensor h = Tensor::Randn(6, 4, &rng);
  auto [e1, e2] = model.EmbedPair(h, GraphLevel(g.AdjacencyMatrix()), h,
                                  GraphLevel(g.AdjacencyMatrix()));
  for (int c = 0; c < 8; ++c) {
    EXPECT_NEAR(e1.At(0, c), e2.At(0, c), 1e-5);
  }
}

TEST(GmnTest, CrossAttentionMakesEmbeddingPairDependent) {
  // The hallmark of GMN: the embedding of g1 depends on its partner.
  Rng rng(3);
  GmnModel model(SmallConfig(), GmnModel::Pooling::kGatedSum, &rng);
  Graph g1 = ConnectedErdosRenyi(6, 0.5, &rng);
  Graph g2 = ConnectedErdosRenyi(6, 0.5, &rng);
  Graph g3 = Star(6);
  Tensor h1 = Tensor::Randn(6, 4, &rng);
  Tensor h2 = Tensor::Randn(6, 4, &rng);
  Tensor h3 = Tensor::Randn(6, 4, &rng);
  auto [a, unused1] = model.EmbedPair(h1, GraphLevel(g1.AdjacencyMatrix()),
                                      h2, GraphLevel(g2.AdjacencyMatrix()));
  auto [b, unused2] = model.EmbedPair(h1, GraphLevel(g1.AdjacencyMatrix()),
                                      h3, GraphLevel(g3.AdjacencyMatrix()));
  double diff = 0;
  for (int c = 0; c < 8; ++c) diff += std::abs(a.At(0, c) - b.At(0, c));
  EXPECT_GT(diff, 1e-4);
}

TEST(GmnTest, HapPoolingVariantWorks) {
  Rng rng(4);
  GmnModel model(SmallConfig(), GmnModel::Pooling::kHapCoarsen, &rng);
  model.set_training(false);
  Graph g = ConnectedErdosRenyi(8, 0.4, &rng);
  Tensor h = Tensor::Randn(8, 4, &rng);
  auto [e1, e2] = model.EmbedPair(h, GraphLevel(g.AdjacencyMatrix()), h,
                                  GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(e1.cols(), 8);
  for (int c = 0; c < 8; ++c) EXPECT_TRUE(std::isfinite(e1.At(0, c)));
}

TEST(GmnTest, GradientsReachParameters) {
  Rng rng(5);
  GmnModel model(SmallConfig(), GmnModel::Pooling::kGatedSum, &rng);
  Graph g1 = Cycle(5), g2 = Path(4);
  auto [e1, e2] = model.EmbedPair(
      Tensor::Randn(5, 4, &rng), GraphLevel(g1.AdjacencyMatrix()),
      Tensor::Randn(4, 4, &rng), GraphLevel(g2.AdjacencyMatrix()));
  EuclideanDistance(e1, e2).Backward();
  int with_grad = 0;
  for (const Tensor& p : model.Parameters()) {
    bool any = false;
    for (float v : p.grad()) any |= v != 0.0f;
    with_grad += any;
  }
  EXPECT_GT(with_grad, 0);
}

}  // namespace
}  // namespace hap
