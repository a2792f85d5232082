#include <memory>

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "pooling/asap.h"
#include "pooling/attpool.h"
#include "pooling/diffpool.h"
#include "pooling/flat.h"
#include "pooling/set2set.h"
#include "pooling/structpool.h"
#include "pooling/topk.h"
#include "tensor/ops.h"

namespace hap {
namespace {

struct Fixture {
  Fixture() : rng(77), g(ConnectedErdosRenyi(10, 0.4, &rng)) {
    h = Tensor::Randn(10, 6, &rng);
    adj = g.AdjacencyMatrix();
  }
  Rng rng;
  Graph g;
  Tensor h, adj;
};

TEST(FlatPoolTest, SumMeanMaxValues) {
  Tensor h = Tensor::FromVector(2, 2, {1, 5, 3, -1});
  Tensor adj = Tensor::Zeros(2, 2);
  EXPECT_EQ(SumReadout().Forward(h, GraphLevel(adj)).At(0, 0), 4.0f);
  EXPECT_EQ(SumReadout().Forward(h, GraphLevel(adj)).At(0, 1), 4.0f);
  EXPECT_EQ(MeanReadout().Forward(h, GraphLevel(adj)).At(0, 0), 2.0f);
  EXPECT_EQ(MaxReadout().Forward(h, GraphLevel(adj)).At(0, 1), 5.0f);
}

TEST(FlatPoolTest, SumDistinguishesMultiplicityMeanDoesNot) {
  // The GIN argument: mean pooling collapses repeated features, sum does
  // not (Sec. 2.1.1).
  Tensor small = Tensor::FromVector(1, 1, {2.0f});
  Tensor big = Tensor::FromVector(3, 1, {2.0f, 2.0f, 2.0f});
  Tensor adj1 = Tensor::Zeros(1, 1), adj3 = Tensor::Zeros(3, 3);
  EXPECT_EQ(MeanReadout().Forward(small, GraphLevel(adj1)).At(0, 0),
            MeanReadout().Forward(big, GraphLevel(adj3)).At(0, 0));
  EXPECT_NE(SumReadout().Forward(small, GraphLevel(adj1)).At(0, 0),
            SumReadout().Forward(big, GraphLevel(adj3)).At(0, 0));
}

TEST(FlatPoolTest, MeanAttOutputShapeAndParams) {
  Fixture f;
  MeanAttReadout readout(6, &f.rng);
  Tensor out = readout.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(out.rows(), 1);
  EXPECT_EQ(out.cols(), 6);
  EXPECT_EQ(readout.Parameters().size(), 1u);
}

TEST(FlatPoolTest, GatedSumShape) {
  Fixture f;
  GatedSumReadout readout(6, &f.rng);
  Tensor out = readout.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(out.cols(), 6);
}

TEST(Set2SetTest, OutputIsDoubleWidth) {
  Fixture f;
  Set2SetReadout readout(6, &f.rng, /*steps=*/3);
  Tensor out = readout.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(out.rows(), 1);
  EXPECT_EQ(out.cols(), 12);
  EXPECT_EQ(readout.OutFeatures(6), 12);
}

class PermutationInvarianceTest
    : public ::testing::TestWithParam<const char*> {};

// Claim 2 analogue for every flat readout: the graph-level embedding must
// not change when nodes are renamed.
TEST_P(PermutationInvarianceTest, FlatReadoutsInvariant) {
  Rng rng(5);
  Graph g = ConnectedErdosRenyi(8, 0.5, &rng);
  Tensor h = Tensor::Randn(8, 4, &rng);
  std::unique_ptr<Readout> readout;
  const std::string name = GetParam();
  if (name == "sum") readout = std::make_unique<SumReadout>();
  if (name == "mean") readout = std::make_unique<MeanReadout>();
  if (name == "max") readout = std::make_unique<MaxReadout>();
  if (name == "meanatt") readout = std::make_unique<MeanAttReadout>(4, &rng);
  if (name == "gated") readout = std::make_unique<GatedSumReadout>(4, &rng);
  if (name == "set2set") readout = std::make_unique<Set2SetReadout>(4, &rng);
  ASSERT_NE(readout, nullptr);
  Tensor out = readout->Forward(h, GraphLevel(g.AdjacencyMatrix()));
  std::vector<int> perm = RandomPermutation(8, &rng);
  Graph pg = g.Permuted(perm);
  Tensor ph(8, 4);
  for (int u = 0; u < 8; ++u) {
    for (int c = 0; c < 4; ++c) ph.Set(perm[u], c, h.At(u, c));
  }
  Tensor pout = readout->Forward(ph, GraphLevel(pg.AdjacencyMatrix()));
  for (int c = 0; c < out.cols(); ++c) {
    EXPECT_NEAR(out.At(0, c), pout.At(0, c), 1e-4) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFlatReadouts, PermutationInvarianceTest,
                         ::testing::Values("sum", "mean", "max", "meanatt",
                                           "gated", "set2set"),
                         [](const auto& info) { return std::string(info.param); });

TEST(TopKTest, KeepCount) {
  EXPECT_EQ(TopKKeepCount(10, 0.5), 5);
  EXPECT_EQ(TopKKeepCount(3, 0.5), 2);   // ceil
  EXPECT_EQ(TopKKeepCount(1, 0.1), 1);   // min_nodes
  EXPECT_EQ(TopKKeepCount(4, 2.0), 4);   // capped at N
}

TEST(GPoolTest, CoarsensToRatio) {
  Fixture f;
  GPoolCoarsener pool(6, 0.5, &f.rng);
  CoarsenResult result = pool.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(result.h.rows(), 5);
  EXPECT_EQ(result.h.cols(), 6);
  EXPECT_EQ(result.level.adjacency().rows(), 5);
  EXPECT_EQ(result.level.adjacency().cols(), 5);
}

TEST(SagPoolTest, CoarsensAndKeepsAdjacencySubmatrix) {
  Fixture f;
  SagPoolCoarsener pool(6, 0.4, &f.rng);
  CoarsenResult result = pool.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(result.h.rows(), 4);
  // Adjacency entries are a subset of original 0/1 weights.
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const float w = result.level.adjacency().At(r, c);
      EXPECT_TRUE(w == 0.0f || w == 1.0f);
    }
  }
}

TEST(SortPoolTest, FlattensTopK) {
  Fixture f;
  SortPoolReadout readout(4);
  Tensor out = readout.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(out.rows(), 1);
  EXPECT_EQ(out.cols(), 24);
}

TEST(SortPoolTest, PadsWhenGraphSmallerThanK) {
  Rng rng(9);
  Tensor h = Tensor::Randn(2, 3, &rng);
  SortPoolReadout readout(5);
  Tensor out = readout.Forward(h, GraphLevel(Tensor::Zeros(2, 2)));
  EXPECT_EQ(out.cols(), 15);
  // Padded region is zero.
  EXPECT_EQ(out.At(0, 14), 0.0f);
}

TEST(AttPoolTest, GlobalAndLocalModes) {
  Fixture f;
  for (auto mode :
       {AttPoolCoarsener::Mode::kGlobal, AttPoolCoarsener::Mode::kLocal}) {
    AttPoolCoarsener pool(6, 0.5, mode, &f.rng);
    CoarsenResult result = pool.Forward(f.h, GraphLevel(f.adj));
    EXPECT_EQ(result.h.rows(), 5);
    EXPECT_EQ(result.level.adjacency().rows(), 5);
  }
}

TEST(DiffPoolTest, FixedClusterCountAndAssignmentRows) {
  Fixture f;
  DiffPoolCoarsener pool(6, 3, &f.rng);
  const GraphLevel level(f.adj);
  CoarsenResult result = pool.Forward(f.h, level);
  EXPECT_EQ(result.h.rows(), 3);
  EXPECT_EQ(result.level.adjacency().rows(), 3);
  const Tensor s = pool.Assignment(f.h, level);
  EXPECT_EQ(s.rows(), 10);
  EXPECT_EQ(s.cols(), 3);
  for (int r = 0; r < 10; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += s.At(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Forward pools with exactly this assignment: A' = SᵀAS.
  const Tensor coarse_adj = MatMul(Transpose(s), level.Aggregate(s));
  EXPECT_EQ(result.level.adjacency().values(), coarse_adj.values());
}

TEST(AsapTest, CoarsensWithSoftMembership) {
  Fixture f;
  AsapCoarsener pool(6, 0.5, &f.rng);
  CoarsenResult result = pool.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(result.h.rows(), 5);
  EXPECT_EQ(result.level.adjacency().rows(), 5);
  for (int64_t i = 0; i < result.level.adjacency().size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.level.adjacency().data()[i]));
  }
}

TEST(StructPoolTest, MeanFieldAssignment) {
  Fixture f;
  StructPoolCoarsener pool(6, 4, &f.rng, /*iterations=*/3);
  CoarsenResult result = pool.Forward(f.h, GraphLevel(f.adj));
  EXPECT_EQ(result.h.rows(), 4);
  EXPECT_EQ(result.level.adjacency().cols(), 4);
}

TEST(CoarsenerGradsTest, GradientsReachParameters) {
  Fixture f;
  DiffPoolCoarsener pool(6, 3, &f.rng);
  CoarsenResult result = pool.Forward(f.h, GraphLevel(f.adj));
  ReduceSumAll(Square(result.h)).Backward();
  bool any = false;
  for (const Tensor& p : pool.Parameters()) {
    for (float v : p.grad()) any |= v != 0.0f;
  }
  EXPECT_TRUE(any);
}

}  // namespace
}  // namespace hap
