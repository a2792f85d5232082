// The shared epoch loop (train/train_loop.h) as its four callers see it:
// an early-stopped run logs its stopping epoch, and SimGNN reports its
// per-epoch losses and trains reproducibly.
#include <cmath>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/hap_model.h"
#include "train/classifier.h"
#include "train/matching_trainer.h"
#include "train/pair_scorer.h"
#include "train/similarity_trainer.h"

namespace hap {
namespace {

HapConfig SmallConfig(int feature_dim) {
  HapConfig config;
  config.feature_dim = feature_dim;
  config.hidden_dim = 12;
  config.encoder_layers = 1;
  config.cluster_sizes = {4, 1};
  config.use_gumbel = false;
  return config;
}

// A budget early stopping must cut short: validation accuracy on a
// handful of graphs stops improving long before 200 epochs.
TrainConfig EarlyStopping(const std::string& log_path) {
  TrainConfig config;
  config.epochs = 200;
  config.patience = 2;
  config.log_path = log_path;
  return config;
}

int CountLines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

TEST(TrainLoopTest, EarlyStoppedClassifierLogsEveryEpoch) {
  Rng rng(3);
  GraphDataset ds = MakeImdbBinaryLike(30, &rng);
  auto data = PrepareDataset(ds);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  GraphClassifier model(
      MakeHapModel(SmallConfig(ds.feature_spec.FeatureDim()), &rng),
      ds.num_classes, 8, &rng);
  const std::string path = testing::TempDir() + "/hap_early_stop_cls.jsonl";
  const TrainConfig config = EarlyStopping(path);
  ClassificationResult result = TrainClassifier(&model, data, split, config);
  ASSERT_LT(result.epoch_losses.size(), static_cast<size_t>(config.epochs));
  EXPECT_EQ(CountLines(path), static_cast<int>(result.epoch_losses.size()));
}

TEST(TrainLoopTest, EarlyStoppedMatcherLogsEveryEpoch) {
  Rng rng(2);
  auto pairs = MakeMatchingPairs(12, 10, &rng);
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 8, 0};
  auto data = PreparePairs(pairs, spec);
  Split split = SplitIndices(12, &rng);
  EmbedderPairScorer scorer(MakeHapModel(SmallConfig(8), &rng));
  const std::string path = testing::TempDir() + "/hap_early_stop_match.jsonl";
  const TrainConfig config = EarlyStopping(path);
  MatchingTrainResult result = TrainMatcher(&scorer, data, split, config);
  ASSERT_LT(result.epoch_losses.size(), static_cast<size_t>(config.epochs));
  EXPECT_EQ(CountLines(path), static_cast<int>(result.epoch_losses.size()));
}

SimilarityTrainResult TrainSmallSimGnn() {
  Rng rng(6);
  auto pool = MakeAidsLikePool(10, &rng);
  auto ged = PairwiseGedMatrix(pool);
  auto train = MakeTriplets(ged, 20, &rng);
  auto test = MakeTriplets(ged, 10, &rng);
  FeatureSpec spec{FeatureKind::kNodeLabelOneHot, 10, 0};
  auto prepared = PrepareGraphs(pool, spec);
  SimGnnModel model(10, 12, 4, &rng);
  TrainConfig config;
  config.epochs = 4;
  config.lr = 0.005f;
  config.seed = 23;
  return TrainSimGnn(&model, prepared, ged, train, test, config);
}

TEST(TrainLoopTest, SimGnnReportsOneFiniteLossPerEpoch) {
  SimilarityTrainResult result = TrainSmallSimGnn();
  ASSERT_EQ(result.epoch_losses.size(), 4u);
  for (double loss : result.epoch_losses) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(loss, 0.0);
  }
}

TEST(TrainLoopTest, SimGnnBitIdenticalAcrossRunsWithOneSeed) {
  SimilarityTrainResult first = TrainSmallSimGnn();
  SimilarityTrainResult second = TrainSmallSimGnn();
  ASSERT_EQ(first.epoch_losses.size(), second.epoch_losses.size());
  for (size_t e = 0; e < first.epoch_losses.size(); ++e) {
    EXPECT_EQ(first.epoch_losses[e], second.epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(first.best_epoch, second.best_epoch);
  EXPECT_EQ(first.train_accuracy, second.train_accuracy);
  EXPECT_EQ(first.test_accuracy, second.test_accuracy);
}

}  // namespace
}  // namespace hap
