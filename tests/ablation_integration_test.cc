// Integration coverage of the ablation/variant surface used by the
// Table 5-7 benches: every HAP-x variant trains end-to-end on every task
// head, GMN-HAP works, and the generalization protocol (train small, test
// large) executes with finite outputs.

#include <gtest/gtest.h>

#include "core/hap_model.h"
#include "matching/pair_data.h"
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
  return config;
}

class VariantSweep : public ::testing::TestWithParam<CoarsenerKind> {};

TEST_P(VariantSweep, ClassificationRunsAndIsFinite) {
  Rng rng(1);
  GraphDataset ds = MakeImdbBinaryLike(24, &rng);
  auto data = PrepareDataset(ds);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  GraphClassifier model(
      MakeHapVariant(GetParam(), SmallConfig(ds.feature_spec.FeatureDim()),
                     &rng),
      ds.num_classes, 12, &rng);
  TrainConfig config;
  config.epochs = 3;
  ClassificationResult result = TrainClassifier(&model, data, split, config);
  EXPECT_GE(result.train_accuracy, 0.0);
  EXPECT_LE(result.train_accuracy, 1.0);
}

TEST_P(VariantSweep, MatchingRunsAndIsFinite) {
  Rng rng(2);
  auto pairs = MakeMatchingPairs(16, 10, &rng);
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 8, 0};
  auto data = PreparePairs(pairs, spec);
  Split split = SplitIndices(16, &rng);
  EmbedderPairScorer scorer(
      MakeHapVariant(GetParam(), SmallConfig(8), &rng));
  TrainConfig config;
  config.epochs = 2;
  MatchingTrainResult result = TrainMatcher(&scorer, data, split, config);
  EXPECT_GE(result.train_accuracy, 0.0);
  EXPECT_LE(result.train_accuracy, 1.0);
}

TEST_P(VariantSweep, SimilarityRunsAndIsFinite) {
  Rng rng(3);
  auto pool = MakeAidsLikePool(8, &rng);
  auto ged = PairwiseGedMatrix(pool);
  auto train = MakeTriplets(ged, 12, &rng);
  auto test = MakeTriplets(ged, 8, &rng);
  FeatureSpec spec{FeatureKind::kNodeLabelOneHot, 10, 0};
  auto prepared = PrepareGraphs(pool, spec);
  EmbedderPairScorer scorer(
      MakeHapVariant(GetParam(), SmallConfig(10), &rng));
  TrainConfig config;
  config.epochs = 2;
  SimilarityTrainResult result =
      TrainSimilarity(&scorer, prepared, train, test, config);
  EXPECT_GE(result.train_accuracy, 0.0);
  EXPECT_LE(result.train_accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantSweep,
    ::testing::Values(CoarsenerKind::kHap, CoarsenerKind::kMeanPool,
                      CoarsenerKind::kMeanAttPool, CoarsenerKind::kSagPool,
                      CoarsenerKind::kDiffPool),
    [](const auto& info) {
      std::string name = CoarsenerKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(GmnHapTest, TrainsOnMatching) {
  Rng rng(4);
  auto pairs = MakeMatchingPairs(16, 10, &rng);
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 8, 0};
  auto data = PreparePairs(pairs, spec);
  Split split = SplitIndices(16, &rng);
  GmnConfig gmn_config;
  gmn_config.feature_dim = 8;
  gmn_config.hidden_dim = 10;
  gmn_config.layers = 2;
  GmnPairScorer scorer(gmn_config, GmnModel::Pooling::kHapCoarsen, &rng);
  TrainConfig config;
  config.epochs = 2;
  MatchingTrainResult result = TrainMatcher(&scorer, data, split, config);
  EXPECT_GE(result.train_accuracy, 0.0);
}

TEST(GeneralizationTest, TrainSmallEvaluateLargeExecutes) {
  Rng rng(5);
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 8, 0};
  auto train_data =
      PreparePairs(MakeMatchingPairs(12, 12, &rng), spec);
  Split split = SplitIndices(12, &rng, 0.9, 0.1);
  split.test.clear();
  EmbedderPairScorer scorer(
      MakeHapModel(SmallConfig(8), &rng));
  TrainConfig config;
  config.epochs = 2;
  TrainMatcher(&scorer, train_data, split, config);
  scorer.set_training(false);
  auto big = PreparePairs(MakeMatchingPairs(6, 60, &rng), spec);
  std::vector<int> all = {0, 1, 2, 3, 4, 5};
  const double accuracy = EvaluateMatcher(scorer, big, all);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

TEST(CoarsenDepthTest, DeeperSchedulesExecute) {
  Rng rng(6);
  GraphDataset ds = MakeImdbBinaryLike(12, &rng);
  auto data = PrepareDataset(ds);
  for (std::vector<int> schedule :
       {std::vector<int>{1}, std::vector<int>{8, 1},
        std::vector<int>{12, 4, 1}}) {
    HapConfig config = SmallConfig(ds.feature_spec.FeatureDim());
    config.cluster_sizes = schedule;
    auto model = MakeHapModel(config, &rng);
    auto levels = model->EmbedLevels(data[0].h, data[0].level);
    EXPECT_EQ(levels.size(), schedule.size());
  }
}

}  // namespace
}  // namespace hap
