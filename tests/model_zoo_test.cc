#include "train/model_zoo.h"

#include <cctype>
#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tensor/ops.h"

namespace hap {
namespace {

TEST(ModelZooTest, ListsFourteenTable3Methods) {
  EXPECT_EQ(ClassifierMethodNames().size(), 14u);
  EXPECT_EQ(ClassifierMethodNames().front(), "GCN-concat");
  EXPECT_EQ(ClassifierMethodNames().back(), "HAP");
}

TEST(ModelZooTest, KnownMethodPredicate) {
  for (const std::string& name : ClassifierMethodNames()) {
    EXPECT_TRUE(IsKnownMethod(name)) << name;
  }
  EXPECT_TRUE(IsKnownMethod("HAP-GAT"));
  EXPECT_TRUE(IsKnownMethod("MinCutPool"));
  EXPECT_FALSE(IsKnownMethod("NotAMethod"));
  EXPECT_FALSE(IsKnownMethod(""));
}

class ZooBuildSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooBuildSweep, BuildsEmbedsAndBackprops) {
  Rng rng(11);
  auto embedder = MakeEmbedderByName(GetParam(), /*feature_dim=*/6,
                                     /*hidden=*/8, &rng);
  ASSERT_NE(embedder, nullptr);
  embedder->set_training(false);
  Graph g = ConnectedErdosRenyi(9, 0.4, &rng);
  Tensor h = Tensor::Randn(9, 6, &rng);
  auto levels = embedder->EmbedLevels(h, GraphLevel(g.AdjacencyMatrix()));
  ASSERT_FALSE(levels.empty());
  for (const Tensor& level : levels) {
    EXPECT_EQ(level.rows(), 1);
    EXPECT_EQ(level.cols(), embedder->embedding_dim());
    for (int c = 0; c < level.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(level.At(0, c)));
    }
  }
  EXPECT_EQ(static_cast<int>(levels.size()), embedder->NumLevels());
  // Backward reaches at least one parameter (methods without parameters —
  // plain sum/mean readouts — still own encoder weights).
  embedder->set_training(true);
  Tensor loss = ReduceSumAll(
      Square(embedder->Embed(h, GraphLevel(g.AdjacencyMatrix()))));
  loss.Backward();
  int with_grad = 0;
  for (const Tensor& p : embedder->Parameters()) {
    bool any = false;
    for (float v : p.grad()) any |= v != 0.0f;
    with_grad += any;
  }
  EXPECT_GT(with_grad, 0) << GetParam();
}

std::string SweepName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ZooBuildSweep,
    ::testing::Values("GCN-concat", "SumPool", "MeanPool", "MeanAttPool",
                      "Set2Set", "SortPooling", "AttPool-global",
                      "AttPool-local", "gPool", "SAGPool", "DiffPool", "ASAP",
                      "StructPool", "MinCutPool", "HAP", "HAP-GAT"),
    SweepName);

TEST(ModelZooDeathTest, UnknownMethodChecks) {
  Rng rng(1);
  EXPECT_DEATH(MakeEmbedderByName("bogus", 4, 8, &rng), "unknown method");
}

TEST(ModelZooTest, HapVariantsDifferInEncoder) {
  Rng rng1(3), rng2(3);
  auto gcn = MakeEmbedderByName("HAP", 4, 8, &rng1);
  auto gat = MakeEmbedderByName("HAP-GAT", 4, 8, &rng2);
  gcn->set_training(false);
  gat->set_training(false);
  Graph g = Cycle(5);
  Rng feature_rng(4);
  Tensor h = Tensor::Randn(5, 4, &feature_rng);
  Tensor a = gcn->Embed(h, GraphLevel(g.AdjacencyMatrix()));
  Tensor b = gat->Embed(h, GraphLevel(g.AdjacencyMatrix()));
  double gap = 0.0;
  for (int c = 0; c < 8; ++c) gap += std::abs(a.At(0, c) - b.At(0, c));
  EXPECT_GT(gap, 1e-6);
}

}  // namespace
}  // namespace hap
