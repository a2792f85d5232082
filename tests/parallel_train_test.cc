#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/hap_model.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "train/classifier.h"
#include "train/matching_trainer.h"
#include "train/pair_scorer.h"
#include "train/similarity_trainer.h"

namespace hap {
namespace {

// --- Kernel bit-equality: the parallel tensor kernels must produce results
// --- bit-identical to a single-threaded pool at every width, because each
// --- block owns disjoint outputs and keeps the serial summation order.

struct FwdBwd {
  std::vector<float> out;
  std::vector<float> da;
  std::vector<float> db;
};

FwdBwd MatMulFwdBwd(int m, int k, int n, uint64_t seed) {
  Rng rng(seed);
  Tensor a = Tensor::Randn(m, k, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn(k, n, &rng, 1.0f, /*requires_grad=*/true);
  Tensor c = MatMul(a, b);
  ReduceSumAll(Square(c)).Backward();
  FwdBwd r;
  r.out.assign(c.data(), c.data() + m * n);
  r.da = a.grad();
  r.db = b.grad();
  return r;
}

TEST(ParallelKernelTest, MatMulBitIdenticalAcrossThreadCounts) {
  const int original = NumThreads();
  SetNumThreads(1);
  FwdBwd serial = MatMulFwdBwd(67, 41, 53, 11);
  SetNumThreads(4);
  FwdBwd parallel = MatMulFwdBwd(67, 41, 53, 11);
  SetNumThreads(original);
  ASSERT_EQ(serial.out.size(), parallel.out.size());
  for (size_t i = 0; i < serial.out.size(); ++i) {
    ASSERT_EQ(serial.out[i], parallel.out[i]) << "out[" << i << "]";
  }
  for (size_t i = 0; i < serial.da.size(); ++i) {
    ASSERT_EQ(serial.da[i], parallel.da[i]) << "dA[" << i << "]";
  }
  for (size_t i = 0; i < serial.db.size(); ++i) {
    ASSERT_EQ(serial.db[i], parallel.db[i]) << "dB[" << i << "]";
  }
}

std::vector<float> SoftmaxChainGrad(int m, int n, uint64_t seed) {
  Rng rng(seed);
  Tensor a = Tensor::Randn(m, n, &rng, 1.0f, /*requires_grad=*/true);
  Tensor z = SoftmaxRows(Relu(Mul(a, a)));
  ReduceSumAll(Mul(z, z)).Backward();
  return a.grad();
}

TEST(ParallelKernelTest, ElementwiseSoftmaxChainBitIdentical) {
  const int original = NumThreads();
  SetNumThreads(1);
  std::vector<float> serial = SoftmaxChainGrad(130, 90, 23);
  SetNumThreads(8);
  std::vector<float> parallel = SoftmaxChainGrad(130, 90, 23);
  SetNumThreads(original);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "grad[" << i << "]";
  }
}

// --- Trainer determinism: the data-parallel runner must give an identical
// --- training trajectory for every num_threads >= 1 (same seed), because
// --- per-example noise seeds are position-derived and gradient reduction
// --- happens in batch order.

HapConfig SmallModelConfig(int feature_dim) {
  HapConfig config;
  config.feature_dim = feature_dim;
  config.hidden_dim = 12;
  config.encoder_layers = 1;
  config.cluster_sizes = {4, 1};
  return config;
}

TrainConfig ShortTraining(int num_threads) {
  TrainConfig config;
  config.epochs = 3;
  config.patience = 0;
  config.lr = 0.01f;
  config.batch_size = 4;
  config.seed = 9;
  config.num_threads = num_threads;
  return config;
}

ClassificationResult TrainSmallClassifier(int num_threads) {
  Rng rng(21);
  GraphDataset ds = MakeImdbBinaryLike(24, &rng);
  auto data = PrepareDataset(ds);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  const HapConfig config = SmallModelConfig(ds.feature_spec.FeatureDim());
  Rng model_rng(77);
  GraphClassifier model(MakeHapModel(config, &model_rng), ds.num_classes, 12,
                        &model_rng);
  auto factory = [&config, &ds]() {
    Rng replica_rng(1);  // Weights are synced from the master, so the
                         // replica's own initialisation is irrelevant.
    return std::make_unique<GraphClassifier>(MakeHapModel(config, &replica_rng),
                                             ds.num_classes, 12, &replica_rng);
  };
  return TrainClassifier(&model, data, split, ShortTraining(num_threads),
                         factory);
}

TEST(ParallelTrainTest, ClassifierTrajectoryIdenticalAcrossThreadCounts) {
  ClassificationResult one = TrainSmallClassifier(1);
  ClassificationResult four = TrainSmallClassifier(4);
  ASSERT_EQ(one.epoch_losses.size(), four.epoch_losses.size());
  ASSERT_FALSE(one.epoch_losses.empty());
  for (size_t e = 0; e < one.epoch_losses.size(); ++e) {
    EXPECT_EQ(one.epoch_losses[e], four.epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(one.val_accuracy, four.val_accuracy);
  EXPECT_EQ(one.test_accuracy, four.test_accuracy);
}

MatchingTrainResult TrainSmallMatcher(int num_threads) {
  Rng rng(41);
  auto pairs = MakeMatchingPairs(20, 10, &rng);
  FeatureSpec spec{FeatureKind::kRelativeDegreeBuckets, 8, 0};
  auto data = PreparePairs(pairs, spec);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  const HapConfig config = SmallModelConfig(8);
  Rng model_rng(63);
  EmbedderPairScorer scorer(MakeHapModel(config, &model_rng));
  auto factory = [&config]() -> std::unique_ptr<PairScorer> {
    Rng replica_rng(1);
    return std::make_unique<EmbedderPairScorer>(
        MakeHapModel(config, &replica_rng));
  };
  return TrainMatcher(&scorer, data, split, ShortTraining(num_threads),
                      /*scale=*/0.5f, factory);
}

TEST(ParallelTrainTest, MatcherTrajectoryIdenticalAcrossThreadCounts) {
  MatchingTrainResult one = TrainSmallMatcher(1);
  MatchingTrainResult two = TrainSmallMatcher(2);
  ASSERT_EQ(one.epoch_losses.size(), two.epoch_losses.size());
  ASSERT_FALSE(one.epoch_losses.empty());
  for (size_t e = 0; e < one.epoch_losses.size(); ++e) {
    EXPECT_EQ(one.epoch_losses[e], two.epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(one.best_epoch, two.best_epoch);
  EXPECT_EQ(one.val_accuracy, two.val_accuracy);
  EXPECT_EQ(one.test_accuracy, two.test_accuracy);
}

SimilarityTrainResult TrainSmallSimilarity(int num_threads) {
  Rng rng(31);
  auto pool = MakeAidsLikePool(10, &rng);
  auto ged = PairwiseGedMatrix(pool);
  auto train = MakeTriplets(ged, 24, &rng);
  auto test = MakeTriplets(ged, 12, &rng);
  FeatureSpec spec{FeatureKind::kNodeLabelOneHot, 10, 0};
  auto prepared = PrepareGraphs(pool, spec);
  HapConfig config;
  config.feature_dim = 10;
  config.hidden_dim = 12;
  config.cluster_sizes = {4, 1};
  Rng model_rng(55);
  EmbedderPairScorer scorer(MakeHapModel(config, &model_rng));
  auto factory = [&config]() {
    Rng replica_rng(1);
    return std::make_unique<EmbedderPairScorer>(
        MakeHapModel(config, &replica_rng));
  };
  TrainConfig tc;
  tc.epochs = 2;
  tc.lr = 0.005f;
  tc.batch_size = 4;
  tc.seed = 13;
  tc.num_threads = num_threads;
  return TrainSimilarity(&scorer, prepared, train, test, tc, factory);
}

TEST(ParallelTrainTest, SimilarityTrajectoryIdenticalAcrossThreadCounts) {
  SimilarityTrainResult one = TrainSmallSimilarity(1);
  SimilarityTrainResult three = TrainSmallSimilarity(3);
  ASSERT_EQ(one.epoch_losses.size(), three.epoch_losses.size());
  ASSERT_FALSE(one.epoch_losses.empty());
  for (size_t e = 0; e < one.epoch_losses.size(); ++e) {
    EXPECT_EQ(one.epoch_losses[e], three.epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_EQ(one.train_accuracy, three.train_accuracy);
  EXPECT_EQ(one.test_accuracy, three.test_accuracy);
}

}  // namespace
}  // namespace hap
