// Property sweeps (TEST_P) over the MOA attention and coarsening module:
// Eq. 15 row-normalisation, Claim 2 permutation invariance, gradient
// correctness of the full coarsening pipeline, and behaviour across a grid
// of (N, N') shapes including N < N', taped and untaped.

#include <cmath>
#include <optional>
#include <tuple>

#include <gtest/gtest.h>

#include "core/coarsening.h"
#include "graph/generators.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace hap {
namespace {

// (N, N', paper-literal relaxation, taped). Untaped calls run the in-place
// GCont and MOA path.
class MoaShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool, bool>> {};

TEST_P(MoaShapeSweep, RowsNormalisedAndPositive) {
  const auto [n, clusters, literal, taped] = GetParam();
  std::optional<NoGradGuard> no_grad;
  if (!taped) no_grad.emplace();
  Rng rng(n * 31 + clusters);
  CoarseningConfig config;
  config.in_features = 5;
  config.num_clusters = clusters;
  config.paper_literal_relaxation = literal;
  CoarseningModule module(config, &rng);
  Tensor h = Tensor::Randn(n, 5, &rng);
  Tensor m = module.ComputeAttention(module.ComputeGCont(h));
  ASSERT_EQ(m.rows(), n);
  ASSERT_EQ(m.cols(), clusters);
  for (int r = 0; r < n; ++r) {
    double sum = 0.0;
    for (int c = 0; c < clusters; ++c) {
      EXPECT_GT(m.At(r, c), 0.0f);
      sum += m.At(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST_P(MoaShapeSweep, CoarsenedShapesMatch) {
  const auto [n, clusters, literal, taped] = GetParam();
  std::optional<NoGradGuard> no_grad;
  if (!taped) no_grad.emplace();
  Rng rng(n * 17 + clusters);
  CoarseningConfig config;
  config.in_features = 5;
  config.num_clusters = clusters;
  config.paper_literal_relaxation = literal;
  CoarseningModule module(config, &rng);
  module.set_training(false);
  Graph g = ConnectedErdosRenyi(n, 0.5, &rng);
  CoarsenResult result = module.Forward(Tensor::Randn(n, 5, &rng),
                                        GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(result.h.rows(), clusters);
  EXPECT_EQ(result.h.cols(), 5);
  EXPECT_EQ(result.level.adjacency().rows(), clusters);
  EXPECT_EQ(result.level.adjacency().cols(), clusters);
  for (int64_t i = 0; i < result.level.adjacency().size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.level.adjacency().data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MoaShapeSweep,
    ::testing::Combine(::testing::Values(2, 3, 6, 12, 25),
                       ::testing::Values(1, 3, 8),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "_K" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_literal" : "_invariant") +
             (std::get<3>(info.param) ? "_taped" : "_untaped");
    });

class InvarianceSweep : public ::testing::TestWithParam<int> {};

TEST_P(InvarianceSweep, DefaultMoaIsPermutationInvariant) {
  const int n = GetParam();
  Rng rng(n);
  CoarseningConfig config;
  config.in_features = 4;
  config.num_clusters = 3;
  config.use_gumbel = false;
  CoarseningModule module(config, &rng);
  module.set_training(false);
  Graph g = ConnectedErdosRenyi(n, 0.4, &rng);
  Tensor h = Tensor::Randn(n, 4, &rng);
  CoarsenResult base = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<int> perm = RandomPermutation(n, &rng);
    Graph pg = g.Permuted(perm);
    Tensor ph(n, 4);
    for (int u = 0; u < n; ++u) {
      for (int c = 0; c < 4; ++c) ph.Set(perm[u], c, h.At(u, c));
    }
    CoarsenResult permuted =
        module.Forward(ph, GraphLevel(pg.AdjacencyMatrix()));
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 5 && c < permuted.h.cols(); ++c) {
        EXPECT_NEAR(base.h.At(r, c), permuted.h.At(r, c), 2e-4);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InvarianceSweep,
                         ::testing::Values(4, 7, 11, 16, 23));

TEST(MoaGradientTest, FullCoarseningPipelineGradCheck) {
  // Numerical validation of the analytic gradients through GCont + MOA +
  // cluster formation (Gumbel off for determinism).
  Rng rng(5);
  CoarseningConfig config;
  config.in_features = 3;
  config.num_clusters = 2;
  config.use_gumbel = false;
  CoarseningModule module(config, &rng);
  Graph g = ConnectedErdosRenyi(4, 0.6, &rng);
  Tensor adjacency = g.AdjacencyMatrix();
  Tensor h = Tensor::Randn(4, 3, &rng, 1.0f, /*requires_grad=*/true);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        CoarsenResult coarse = module.Forward(in[0], GraphLevel(adjacency));
        return Add(ReduceSumAll(Square(coarse.h)),
                   ReduceSumAll(Square(coarse.level.adjacency())));
      },
      {h}, /*epsilon=*/1e-3,
      // Slightly relaxed: the mass-normalised cluster formation divides by
      // attention column sums, amplifying float32 rounding in the
      // finite-difference comparison.
      /*tolerance=*/5e-2);
  EXPECT_TRUE(result.ok) << "max rel error " << result.max_rel_error;
}

TEST(MoaGradientTest, ParameterGradCheck) {
  // Gradients with respect to the GCont transform itself.
  Rng rng(6);
  CoarseningConfig config;
  config.in_features = 3;
  config.num_clusters = 2;
  config.use_gumbel = false;
  CoarseningModule module(config, &rng);
  Graph g = Cycle(4);
  Tensor adjacency = g.AdjacencyMatrix();
  Tensor h = Tensor::Randn(4, 3, &rng);
  std::vector<Tensor> params = module.Parameters();
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>&) {
        CoarsenResult coarse = module.Forward(h, GraphLevel(adjacency));
        return ReduceSumAll(Square(coarse.h));
      },
      params);
  EXPECT_TRUE(result.ok) << "max rel error " << result.max_rel_error;
}

TEST(MoaLocalityTest, AttentionFavorsInformativeStructure) {
  // A soft-substructure sanity check in the spirit of Fig. 1: on a graph
  // with two planted communities and community-indicator features, nodes
  // of the same community should develop more similar attention rows than
  // nodes across communities (after the content map sees the features).
  Rng rng(8);
  Graph g = PlantedPartition({6, 6}, 0.9, 0.05, &rng);
  Tensor h(12, 4);
  for (int u = 0; u < 12; ++u) {
    h.Set(u, g.node_label(u), 1.0f);
    h.Set(u, 2 + g.node_label(u), 0.5f);
  }
  CoarseningConfig config;
  config.in_features = 4;
  config.num_clusters = 2;
  CoarseningModule module(config, &rng);
  Tensor m = module.ComputeAttention(module.ComputeGCont(h));
  auto row_distance = [&](int a, int b) {
    double d = 0;
    for (int c = 0; c < 2; ++c) d += std::abs(m.At(a, c) - m.At(b, c));
    return d;
  };
  double within = 0, across = 0;
  int within_count = 0, across_count = 0;
  for (int a = 0; a < 12; ++a) {
    for (int b = a + 1; b < 12; ++b) {
      if (g.node_label(a) == g.node_label(b)) {
        within += row_distance(a, b);
        ++within_count;
      } else {
        across += row_distance(a, b);
        ++across_count;
      }
    }
  }
  EXPECT_LE(within / within_count, across / across_count + 1e-9);
}

}  // namespace
}  // namespace hap
