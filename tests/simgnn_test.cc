#include "matching/simgnn.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph_level.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "train/prepared.h"

namespace hap {
namespace {

TEST(SimGnnTest, SimilarityInUnitInterval) {
  Rng rng(1);
  SimGnnModel model(4, 8, 4, &rng);
  Graph g1 = Cycle(5), g2 = Star(6);
  Tensor s = model.PredictSimilarity(
      Tensor::Randn(5, 4, &rng), GraphLevel(g1.AdjacencyMatrix()),
      Tensor::Randn(6, 4, &rng), GraphLevel(g2.AdjacencyMatrix()));
  EXPECT_EQ(s.rows(), 1);
  EXPECT_EQ(s.cols(), 1);
  EXPECT_GT(s.Item(), 0.0f);
  EXPECT_LT(s.Item(), 1.0f);
}

TEST(SimGnnTest, DeterministicForward) {
  Rng rng(2);
  SimGnnModel model(4, 8, 4, &rng);
  Graph g = Cycle(4);
  Tensor h = Tensor::Randn(4, 4, &rng);
  const float s1 =
      model
          .PredictSimilarity(h, GraphLevel(g.AdjacencyMatrix()), h,
                             GraphLevel(g.AdjacencyMatrix()))
          .Item();
  const float s2 =
      model
          .PredictSimilarity(h, GraphLevel(g.AdjacencyMatrix()), h,
                             GraphLevel(g.AdjacencyMatrix()))
          .Item();
  EXPECT_EQ(s1, s2);
}

TEST(SimGnnTest, GradientsFlow) {
  Rng rng(3);
  SimGnnModel model(4, 8, 4, &rng);
  Graph g1 = Cycle(5), g2 = Path(5);
  Tensor s = model.PredictSimilarity(
      Tensor::Randn(5, 4, &rng), GraphLevel(g1.AdjacencyMatrix()),
      Tensor::Randn(5, 4, &rng), GraphLevel(g2.AdjacencyMatrix()));
  s.Backward();
  int with_grad = 0;
  for (const Tensor& p : model.Parameters()) {
    bool any = false;
    for (float v : p.grad()) any |= v != 0.0f;
    with_grad += any;
  }
  EXPECT_GT(with_grad, 3);
}

TEST(SimGnnTest, PreparedLevelsServeTheirWarmOperators) {
  // TrainSimGnn scores pairs from a prepared pool: every operator the
  // encoder reads must come from the levels PrepareGraph warmed (no cache
  // miss), and each score must equal, bit for bit, the same call on fresh
  // levels over the same adjacencies.
  obs::SetMetricsEnabled(true);
  Rng rng(5);
  const GraphDataset ds = MakeMutagLike(10, &rng);
  const std::vector<PreparedGraph> pool = PrepareDataset(ds);
  SimGnnModel model(ds.feature_spec.FeatureDim(), 8, 4, &rng);
  const uint64_t hits_before = obs::CounterValue(obs::names::kGraphCacheHit);
  const uint64_t misses_before =
      obs::CounterValue(obs::names::kGraphCacheMiss);
  std::vector<Tensor> warm;
  for (size_t i = 0; i + 1 < pool.size(); ++i) {
    warm.push_back(model.PredictSimilarity(pool[i].h, pool[i].level,
                                           pool[i + 1].h, pool[i + 1].level));
  }
  EXPECT_GT(obs::CounterValue(obs::names::kGraphCacheHit), hits_before);
  EXPECT_EQ(obs::CounterValue(obs::names::kGraphCacheMiss), misses_before);
  obs::SetMetricsEnabled(false);
  for (size_t i = 0; i + 1 < pool.size(); ++i) {
    const Tensor fresh = model.PredictSimilarity(
        pool[i].h, GraphLevel(ds.graphs[i].AdjacencyMatrix()), pool[i + 1].h,
        GraphLevel(ds.graphs[i + 1].AdjacencyMatrix()));
    EXPECT_EQ(std::memcmp(warm[i].data(), fresh.data(), sizeof(float)), 0)
        << "pair " << i;
  }
}

TEST(SimGnnTest, ParameterCount) {
  Rng rng(4);
  SimGnnModel model(4, 8, 4, &rng);
  // encoder (2 layers x 2) + readout (1) + NTN bilinear (1) + linear (2) +
  // score (2).
  EXPECT_EQ(model.Parameters().size(), 10u);
}

}  // namespace
}  // namespace hap
