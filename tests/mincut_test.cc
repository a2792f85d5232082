#include "pooling/mincut.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "tensor/ops.h"

namespace hap {
namespace {

TEST(MinCutPoolTest, ShapesAndAuxLoss) {
  Rng rng(1);
  Graph g = ConnectedErdosRenyi(10, 0.4, &rng);
  MinCutPoolCoarsener pool(6, 3, &rng);
  const Tensor h = Tensor::Randn(10, 6, &rng);
  const GraphLevel level(g.AdjacencyMatrix());
  CoarsenResult result = pool.Forward(h, level);
  EXPECT_EQ(result.h.rows(), 3);
  EXPECT_EQ(result.level.adjacency().rows(), 3);
  const Tensor aux = pool.AuxiliaryLoss(h, level);
  ASSERT_TRUE(aux.defined());
  EXPECT_TRUE(std::isfinite(aux.Item()));
  // Balanced, fully within-cluster assignments would reach -1; any
  // assignment keeps the cut term in [-1, 0] and the orthogonality term
  // non-negative.
  EXPECT_GE(aux.Item(), -1.0f - 1e-5f);
}

TEST(MinCutPoolTest, AuxLossIsDifferentiable) {
  Rng rng(2);
  Graph g = ConnectedErdosRenyi(8, 0.5, &rng);
  MinCutPoolCoarsener pool(4, 3, &rng);
  const Tensor h = Tensor::Randn(8, 4, &rng);
  const GraphLevel level(g.AdjacencyMatrix());
  CoarsenResult result = pool.Forward(h, level);
  Tensor total =
      Add(ReduceSumAll(Square(result.h)), pool.AuxiliaryLoss(h, level));
  total.Backward();
  for (const Tensor& p : pool.Parameters()) {
    bool any = false;
    for (float v : p.grad()) any |= v != 0.0f;
    EXPECT_TRUE(any);
  }
}

TEST(MinCutPoolTest, CutLossPrefersCommunityAlignedAssignment) {
  // Training only the aux loss on a two-community graph should drive the
  // cut term down (more within-cluster mass) relative to init.
  Rng rng(3);
  Graph g = PlantedPartition({8, 8}, 0.9, 0.02, &rng);
  Tensor h(16, 2);
  for (int u = 0; u < 16; ++u) h.Set(u, g.node_label(u), 1.0f);
  MinCutPoolCoarsener pool(2, 2, &rng);
  const GraphLevel level(g.AdjacencyMatrix());
  const float initial = pool.AuxiliaryLoss(h, level).Item();
  // A few optimisation steps on the aux objective alone.
  std::vector<Tensor> params = pool.Parameters();
  for (int step = 0; step < 60; ++step) {
    Tensor loss = pool.AuxiliaryLoss(h, level);
    loss.Backward();
    for (Tensor& p : params) {
      float* data = p.mutable_data();
      for (int64_t i = 0; i < p.size(); ++i) data[i] -= 0.1f * p.grad()[i];
      p.ZeroGrad();
    }
  }
  EXPECT_LT(pool.AuxiliaryLoss(h, level).Item(), initial);
}

TEST(MinCutPoolTest, WorksAsHierarchyStage) {
  Rng rng(4);
  Graph g = ConnectedErdosRenyi(9, 0.4, &rng);
  MinCutPoolCoarsener first(5, 4, &rng);
  MinCutPoolCoarsener second(5, 1, &rng);
  CoarsenResult mid =
      first.Forward(Tensor::Randn(9, 5, &rng), GraphLevel(g.AdjacencyMatrix()));
  CoarsenResult out = second.Forward(mid.h, mid.level);
  EXPECT_EQ(out.h.rows(), 1);
}

}  // namespace
}  // namespace hap
