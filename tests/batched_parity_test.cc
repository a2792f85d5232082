#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/hap_model.h"
#include "graph/batched_graph.h"
#include "pooling/flat.h"
#include "train/classifier.h"

namespace hap {
namespace {

// The batching contract (docs/BATCHING.md): running N distinct graphs as
// one batched eval-mode forward is bit-identical to running them one at a
// time, for every architecture with a batched mirror and any thread count.

constexpr int kHidden = 12;

using EmbedderFactory =
    std::function<std::unique_ptr<GraphEmbedder>(int feature_dim, Rng* rng)>;

struct Architecture {
  std::string name;
  EmbedderFactory make;
};

EmbedderFactory Hap(EncoderKind encoder, CoarsenMode mode) {
  return [encoder, mode](int feature_dim, Rng* rng) {
    HapConfig config;
    config.encoder = encoder;
    config.feature_dim = feature_dim;
    config.hidden_dim = kHidden;
    config.encoder_layers = 1;
    config.cluster_sizes = {4, 1};
    std::unique_ptr<GraphEmbedder> embedder = MakeHapModel(config, rng);
    // Top-k keeps 2 of the 4 first-level clusters per node.
    embedder->set_coarsen_mode(mode, /*topk=*/2);
    return embedder;
  };
}

template <typename ReadoutType>
EmbedderFactory Flat(EncoderKind encoder) {
  return [encoder](int feature_dim,
                   Rng* rng) -> std::unique_ptr<GraphEmbedder> {
    return std::make_unique<FlatEmbedder>(
        std::make_unique<GnnEncoder>(
            encoder, std::vector<int>{feature_dim, kHidden, kHidden}, rng),
        std::make_unique<ReadoutType>());
  };
}

// Every architecture with a batched mirror.
std::vector<Architecture> BatchedArchitectures() {
  std::vector<Architecture> out;
  const std::pair<const char*, EncoderKind> encoders[] = {
      {"GCN", EncoderKind::kGcn},
      {"GAT", EncoderKind::kGat},
      {"GIN", EncoderKind::kGin}};
  for (const auto& [encoder_name, encoder] : encoders) {
    for (CoarsenMode mode : {CoarsenMode::kDense, CoarsenMode::kTopkSparse}) {
      out.push_back({std::string("HAP-") + encoder_name + "-" +
                         CoarsenModeName(mode),
                     Hap(encoder, mode)});
    }
  }
  out.push_back({"SumPool", Flat<SumReadout>(EncoderKind::kGin)});
  out.push_back({"MeanPool", Flat<MeanReadout>(EncoderKind::kGcn)});
  out.push_back({"MaxPool", Flat<MaxReadout>(EncoderKind::kGat)});
  out.push_back({"GCN-concat", [](int feature_dim, Rng* rng) {
                   return std::unique_ptr<GraphEmbedder>(
                       std::make_unique<GcnConcatEmbedder>(
                           feature_dim, kHidden, /*num_layers=*/2, rng));
                 }});
  return out;
}

std::unique_ptr<GraphClassifier> MakeEvalClassifier(
    const Architecture& arch, const GraphDataset& ds) {
  Rng rng(13);
  auto model = std::make_unique<GraphClassifier>(
      arch.make(ds.feature_spec.FeatureDim(), &rng), ds.num_classes, kHidden,
      &rng);
  model->set_training(false);
  return model;
}

// A batch of DISTINCT mixed-size graphs, per the serving contract.
BatchedGraph BatchAll(const std::vector<PreparedGraph>& data) {
  std::vector<Tensor> features;
  std::vector<GraphLevel> levels;
  for (const PreparedGraph& g : data) {
    features.push_back(g.h);
    levels.push_back(g.level);
  }
  return BatchGraphs(features, levels);
}

void ExpectBitEqual(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (int r = 0; r < want.rows(); ++r) {
    for (int c = 0; c < want.cols(); ++c) {
      ASSERT_EQ(want.At(r, c), got.At(r, c)) << what << " row " << r;
    }
  }
}

TEST(BatchedParityTest, InferenceLogitsBitIdenticalToPerGraph) {
  Rng rng(91);
  GraphDataset ds = MakeImdbBinaryLike(10, &rng);
  const std::vector<PreparedGraph> data = PrepareDataset(ds);
  const BatchedGraph batch = BatchAll(data);
  ASSERT_EQ(batch.num_graphs(), static_cast<int>(data.size()));
  const int original = NumThreads();
  for (const Architecture& arch : BatchedArchitectures()) {
    auto model = MakeEvalClassifier(arch, ds);
    ASSERT_TRUE(model->SupportsBatched()) << arch.name;
    NoGradGuard guard;
    for (int threads : {1, 4}) {
      SetNumThreads(threads);
      const std::string what =
          arch.name + " at " + std::to_string(threads) + " threads";
      Tensor batched_logits = model->LogitsBatched(batch);
      std::vector<int> batched_preds = model->PredictBatched(batch);
      ASSERT_EQ(batched_logits.rows(), batch.num_graphs()) << what;
      for (size_t g = 0; g < data.size(); ++g) {
        Tensor single = model->Logits(data[g]);
        for (int c = 0; c < single.cols(); ++c) {
          ASSERT_EQ(single.At(0, c), batched_logits.At(static_cast<int>(g), c))
              << what << ", graph " << g;
        }
        EXPECT_EQ(model->Predict(data[g]), batched_preds[g])
            << what << ", graph " << g;
      }
    }
  }
  SetNumThreads(original);
}

TEST(BatchedParityTest, InferenceParityAcrossThreadCounts) {
  Rng rng(91);
  GraphDataset ds = MakeImdbBinaryLike(8, &rng);
  const BatchedGraph batch = BatchAll(PrepareDataset(ds));
  const int original = NumThreads();
  for (const Architecture& arch : BatchedArchitectures()) {
    auto model = MakeEvalClassifier(arch, ds);
    NoGradGuard guard;
    SetNumThreads(1);
    Tensor serial = model->LogitsBatched(batch);
    SetNumThreads(4);
    Tensor parallel = model->LogitsBatched(batch);
    ExpectBitEqual(serial, parallel, arch.name);
  }
  SetNumThreads(original);
}

TEST(BatchedParityDeathTest, BatchedForwardIsEvalOnly) {
  Rng rng(91);
  GraphDataset ds = MakeImdbBinaryLike(4, &rng);
  const BatchedGraph batch = BatchAll(PrepareDataset(ds));
  const int original = NumThreads();
  SetNumThreads(1);
  for (const Architecture& arch : BatchedArchitectures()) {
    auto model = MakeEvalClassifier(arch, ds);
    // Grad enabled on the parameters: the forward refuses to tape.
    EXPECT_DEATH(model->LogitsBatched(batch), "without a backward function")
        << arch.name;
  }
  // Training-mode coarsening would draw per-graph Gumbel noise; the
  // batched coarsener refuses it.
  auto hap = MakeEvalClassifier(BatchedArchitectures().front(), ds);
  hap->set_training(true);
  NoGradGuard guard;
  EXPECT_DEATH(hap->LogitsBatched(batch), "eval mode only");
  SetNumThreads(original);
}

}  // namespace
}  // namespace hap
