#include <gtest/gtest.h>

#include "core/hap_model.h"
#include "train/classifier.h"
#include "train/matching_trainer.h"
#include "train/pair_scorer.h"

namespace hap {
namespace {

// Integration tests: end-to-end training on tiny corpora must reach
// above-chance accuracy. Budgets are kept small so the suite stays fast.

HapConfig ModelConfig(int feature_dim) {
  HapConfig config;
  config.feature_dim = feature_dim;
  config.hidden_dim = 16;
  config.encoder_layers = 2;
  config.cluster_sizes = {4, 1};
  return config;
}

TrainConfig FastTraining() {
  TrainConfig config;
  config.epochs = 12;
  config.patience = 12;
  config.lr = 0.01f;
  return config;
}

TEST(ClassifierTest, LogitsShapeAndLossPositive) {
  Rng rng(1);
  GraphDataset ds = MakeImdbBinaryLike(10, &rng);
  auto data = PrepareDataset(ds);
  GraphClassifier model(MakeHapModel(ModelConfig(ds.feature_spec.FeatureDim()),
                                     &rng),
                        ds.num_classes, 16, &rng);
  Tensor logits = model.Logits(data[0]);
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 2);
  EXPECT_GT(model.Loss(data[0]).Item(), 0.0f);
  const int predicted = model.Predict(data[0]);
  EXPECT_TRUE(predicted == 0 || predicted == 1);
}

TEST(ClassifierTest, LearnsImdbLikeAboveChance) {
  Rng rng(2);
  GraphDataset ds = MakeImdbBinaryLike(60, &rng);
  auto data = PrepareDataset(ds);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  GraphClassifier model(MakeHapModel(ModelConfig(ds.feature_spec.FeatureDim()),
                                     &rng),
                        ds.num_classes, 16, &rng);
  ClassificationResult result =
      TrainClassifier(&model, data, split, FastTraining());
  EXPECT_GT(result.train_accuracy, 0.7);
}

TEST(ClassifierTest, EvaluateOnEmptyIndicesIsZero) {
  Rng rng(3);
  GraphDataset ds = MakeImdbBinaryLike(4, &rng);
  auto data = PrepareDataset(ds);
  GraphClassifier model(MakeHapModel(ModelConfig(ds.feature_spec.FeatureDim()),
                                     &rng),
                        ds.num_classes, 8, &rng);
  EXPECT_EQ(EvaluateClassifier(model, data, {}), 0.0);
}

TEST(MatchingLossTest, PositivePairPrefersSmallDistance) {
  Tensor near = Tensor::FromVector(1, 1, {0.1f});
  Tensor far = Tensor::FromVector(1, 1, {5.0f});
  EXPECT_LT(MatchingLoss({near}, 1).Item(), MatchingLoss({far}, 1).Item());
  EXPECT_GT(MatchingLoss({near}, 0).Item(), MatchingLoss({far}, 0).Item());
}

TEST(MatchingLossTest, HierarchicalAveraging) {
  Tensor d = Tensor::FromVector(1, 1, {1.0f});
  const float one_level = MatchingLoss({d}, 1).Item();
  const float two_levels = MatchingLoss({d, d}, 1).Item();
  EXPECT_NEAR(one_level, two_levels, 1e-6);
}

TEST(MatcherTest, LearnsMatchingAboveChance) {
  Rng rng(4);
  auto pairs = MakeMatchingPairs(50, 14, &rng);
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 12, 0};
  auto data = PreparePairs(pairs, spec);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  EmbedderPairScorer scorer(MakeHapModel(ModelConfig(12), &rng));
  TrainConfig config = FastTraining();
  config.epochs = 30;
  config.patience = 30;
  TrainMatcher(&scorer, data, split, config);
  // Judge the end-state fit on the training split (the checkpointed
  // metrics snapshot whichever epoch had best validation, which can be an
  // early one on a 5-pair validation set).
  scorer.set_training(false);
  const double fit = EvaluateMatcher(scorer, data, split.train);
  EXPECT_GT(fit, 0.65);
}

TEST(MatcherTest, GmnScorerTrains) {
  Rng rng(5);
  auto pairs = MakeMatchingPairs(30, 12, &rng);
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 12, 0};
  auto data = PreparePairs(pairs, spec);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  GmnConfig gmn_config;
  gmn_config.feature_dim = 12;
  gmn_config.hidden_dim = 12;
  gmn_config.layers = 2;
  GmnPairScorer scorer(gmn_config, GmnModel::Pooling::kGatedSum, &rng);
  TrainConfig config = FastTraining();
  config.epochs = 8;
  MatchingTrainResult result = TrainMatcher(&scorer, data, split, config);
  EXPECT_GT(result.train_accuracy, 0.6);
}

TEST(PreparedTest, PrepareDatasetKeepsLabelsAndShapes) {
  Rng rng(6);
  GraphDataset ds = MakeMutagLike(8, &rng);
  auto data = PrepareDataset(ds);
  ASSERT_EQ(data.size(), 8u);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].label, ds.graphs[i].label());
    EXPECT_EQ(data[i].h.rows(), ds.graphs[i].num_nodes());
    EXPECT_EQ(data[i].level.adjacency().rows(), ds.graphs[i].num_nodes());
  }
}

}  // namespace
}  // namespace hap
