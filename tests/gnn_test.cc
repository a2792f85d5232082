#include <cmath>

#include <gtest/gtest.h>

#include "gnn/encoder.h"
#include "gnn/gat.h"
#include "gnn/gcn.h"
#include "graph/propagation.h"
#include "graph/generators.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace hap {
namespace {

TEST(PropagationTest, AddIdentity) {
  Tensor a = Tensor::FromVector(2, 2, {0, 1, 1, 0});
  Tensor t = AddIdentity(a);
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 1), 1.0f);
}

TEST(PropagationTest, SymNormalizeMatchesGraphHelper) {
  Rng rng(1);
  Graph g = ConnectedErdosRenyi(8, 0.4, &rng);
  Tensor from_graph = g.NormalizedAdjacency();
  Tensor from_tensor = SymNormalize(g.AdjacencyMatrix());
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      EXPECT_NEAR(from_graph.At(r, c), from_tensor.At(r, c), 1e-5);
    }
  }
}

TEST(PropagationTest, RowNormalizeRowsSumToOne) {
  Rng rng(2);
  Graph g = ConnectedErdosRenyi(6, 0.5, &rng);
  Tensor norm = RowNormalize(g.AdjacencyMatrix());
  for (int r = 0; r < 6; ++r) {
    float sum = 0;
    for (int c = 0; c < 6; ++c) sum += norm.At(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(PropagationTest, NormalizationIsDifferentiable) {
  GradCheckResult result = CheckGradients(
      [](const std::vector<Tensor>& in) {
        return ReduceSumAll(Square(SymNormalize(in[0])));
      },
      {Tensor::FromVector(3, 3, {0, 0.5f, 0.2f, 0.5f, 0, 0.7f, 0.2f, 0.7f, 0},
                          /*requires_grad=*/true)});
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(GcnTest, ForwardShape) {
  Rng rng(3);
  Graph g = ConnectedErdosRenyi(7, 0.4, &rng);
  GcnLayer layer(5, 4, &rng);
  Tensor h = Tensor::Randn(7, 5, &rng);
  Tensor out = layer.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(out.rows(), 7);
  EXPECT_EQ(out.cols(), 4);
}

TEST(GcnTest, IsolatedGraphStillFinite) {
  Rng rng(4);
  Graph g(3);  // No edges at all.
  GcnLayer layer(2, 2, &rng);
  Tensor out =
      layer.Forward(Tensor::Ones(3, 2), GraphLevel(g.AdjacencyMatrix()));
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST(GcnTest, TrainableEndToEnd) {
  Rng rng(5);
  GcnLayer layer(3, 2, &rng, Activation::kNone);
  Graph g = Cycle(4);
  Tensor h = Tensor::Randn(4, 3, &rng);
  std::vector<Tensor> params = layer.Parameters();
  EXPECT_EQ(params.size(), 2u);
  Tensor loss =
      ReduceSumAll(Square(layer.Forward(h, GraphLevel(g.AdjacencyMatrix()))));
  loss.Backward();
  // Gradients reached the layer weights.
  bool any_nonzero = false;
  for (float v : params[0].grad()) any_nonzero |= v != 0.0f;
  EXPECT_TRUE(any_nonzero);
}

TEST(GatTest, ForwardShapeAndFinite) {
  Rng rng(6);
  Graph g = ConnectedErdosRenyi(9, 0.3, &rng);
  GatLayer layer(4, 6, &rng);
  Tensor out = layer.Forward(Tensor::Randn(9, 4, &rng),
                             GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(out.rows(), 9);
  EXPECT_EQ(out.cols(), 6);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(std::isfinite(out.data()[i]));
  }
}

TEST(GatTest, AttentionIgnoresNonNeighbors) {
  // With two disconnected components, a node's output must not depend on
  // features in the other component.
  Rng rng(7);
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  GatLayer layer(2, 3, &rng, Activation::kNone);
  Tensor h1 = Tensor::FromVector(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor h2 = Tensor::FromVector(4, 2, {1, 2, 3, 4, 100, -50, 7, 8});
  Tensor out1 = layer.Forward(h1, GraphLevel(g.AdjacencyMatrix()));
  Tensor out2 = layer.Forward(h2, GraphLevel(g.AdjacencyMatrix()));
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(out1.At(0, c), out2.At(0, c), 1e-4);
    EXPECT_NEAR(out1.At(1, c), out2.At(1, c), 1e-4);
  }
}

TEST(GinTest, ForwardShape) {
  Rng rng(21);
  Graph g = Cycle(6);
  GinLayer layer(3, 5, &rng);
  Tensor out = layer.Forward(Tensor::Randn(6, 3, &rng),
                             GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(out.rows(), 6);
  EXPECT_EQ(out.cols(), 5);
}

TEST(GinTest, SumAggregationCountsNeighbors) {
  // With identity-ish MLP inputs, a node's pre-MLP aggregate is
  // (1+eps)h_u + sum of neighbours — verify multiplicity sensitivity by
  // comparing a hub against a leaf under constant features.
  Rng rng(22);
  Graph star = Star(5);
  GinLayer layer(1, 1, &rng, Activation::kNone);
  Tensor h = Tensor::Ones(5, 1);
  Tensor out = layer.Forward(h, GraphLevel(star.AdjacencyMatrix()));
  // Hub aggregates 1 + 4 = 5, leaves 1 + 1 = 2: outputs must differ.
  EXPECT_NE(out.At(0, 0), out.At(1, 0));
}

TEST(GinTest, GradientsReachBothMlpLayers) {
  Rng rng(23);
  GinLayer layer(3, 4, &rng);
  Graph g = Cycle(5);
  ReduceSumAll(Square(layer.Forward(Tensor::Randn(5, 3, &rng),
                                    GraphLevel(g.AdjacencyMatrix()))))
      .Backward();
  EXPECT_EQ(layer.Parameters().size(), 4u);
  for (const Tensor& p : layer.Parameters()) {
    bool any = false;
    for (float v : p.grad()) any |= v != 0.0f;
    EXPECT_TRUE(any);
  }
}

TEST(EncoderTest, GinVariant) {
  Rng rng(24);
  GnnEncoder encoder(EncoderKind::kGin, {5, 8, 8}, &rng);
  Graph g = Cycle(5);
  Tensor out = encoder.Forward(Tensor::Randn(5, 5, &rng),
                               GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(out.cols(), 8);
  EXPECT_EQ(encoder.Parameters().size(), 8u);  // 2 layers x 2 Linear x (W,b)
}

TEST(EncoderTest, StackDepthAndOutputDim) {
  Rng rng(8);
  GnnEncoder encoder(EncoderKind::kGcn, {5, 8, 8}, &rng);
  EXPECT_EQ(encoder.out_features(), 8);
  Graph g = Cycle(5);
  Tensor out = encoder.Forward(Tensor::Randn(5, 5, &rng),
                               GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(out.cols(), 8);
  const size_t params = encoder.Parameters().size();
  EXPECT_EQ(params, 4u);  // Two GCN layers x (W, b).
}

TEST(EncoderTest, GatVariant) {
  Rng rng(9);
  GnnEncoder encoder(EncoderKind::kGat, {5, 8, 8}, &rng);
  Graph g = Cycle(5);
  Tensor out = encoder.Forward(Tensor::Randn(5, 5, &rng),
                               GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(out.cols(), 8);
  EXPECT_EQ(encoder.kind(), EncoderKind::kGat);
}

TEST(EncoderTest, PermutationEquivariance) {
  // GCN encoders are permutation equivariant: encode(P H, P A Pᵀ) = P
  // encode(H, A).
  Rng rng(10);
  GnnEncoder encoder(EncoderKind::kGcn, {3, 4}, &rng);
  Graph g = ConnectedErdosRenyi(6, 0.5, &rng);
  Tensor h = Tensor::Randn(6, 3, &rng);
  std::vector<int> perm = RandomPermutation(6, &rng);
  Graph pg = g.Permuted(perm);
  Tensor ph(6, 3);
  for (int u = 0; u < 6; ++u) {
    for (int c = 0; c < 3; ++c) ph.Set(perm[u], c, h.At(u, c));
  }
  Tensor out = encoder.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  Tensor pout = encoder.Forward(ph, GraphLevel(pg.AdjacencyMatrix()));
  for (int u = 0; u < 6; ++u) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(pout.At(perm[u], c), out.At(u, c), 1e-4);
    }
  }
}

}  // namespace
}  // namespace hap
