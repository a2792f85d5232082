#include "tensor/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "core/hap_model.h"
#include "graph/generators.h"
#include "tensor/ops.h"

namespace hap {
namespace {

// Byte offsets in the checkpoint layout, for mutation tests:
// magic[4] | u32 version | u64 count | per tensor: u32 rows, u32 cols, data.
constexpr size_t kVersionOffset = 4;
constexpr size_t kCountOffset = 8;
constexpr size_t kFirstRowsOffset = 16;
constexpr size_t kFirstColsOffset = 20;

std::string ValidCheckpointBytes(int rows = 2, int cols = 3) {
  Rng rng(42);
  std::stringstream buffer;
  EXPECT_TRUE(SaveParameters({Tensor::Randn(rows, cols, &rng)}, &buffer).ok());
  return buffer.str();
}

template <typename T>
void OverwriteAt(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

Status LoadMutated(const std::string& bytes, int rows = 2, int cols = 3) {
  std::stringstream stream(bytes);
  std::vector<Tensor> params = {Tensor::Zeros(rows, cols, true)};
  return LoadParameters(&stream, &params);
}

TEST(SerializeTest, RoundTripsParameterValues) {
  Rng rng(1);
  Tensor a = Tensor::Randn(3, 4, &rng, 1.0f, true);
  Tensor b = Tensor::Randn(1, 5, &rng, 1.0f, true);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({a, b}, &buffer).ok());
  // Load into same-shaped fresh tensors.
  std::vector<Tensor> loaded = {Tensor::Zeros(3, 4, true),
                                Tensor::Zeros(1, 5, true)};
  ASSERT_TRUE(LoadParameters(&buffer, &loaded).ok());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(loaded[0].data()[i], a.data()[i]);
  }
  for (int64_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(loaded[1].data()[i], b.data()[i]);
  }
}

TEST(SerializeTest, RejectsBadMagic) {
  std::stringstream buffer("not a checkpoint at all");
  std::vector<Tensor> params = {Tensor::Zeros(1, 1, true)};
  Status status = LoadParameters(&buffer, &params);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsCountMismatch) {
  Rng rng(2);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({Tensor::Randn(2, 2, &rng)}, &buffer).ok());
  std::vector<Tensor> two = {Tensor::Zeros(2, 2, true),
                             Tensor::Zeros(2, 2, true)};
  Status status = LoadParameters(&buffer, &two);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SerializeTest, RejectsShapeMismatch) {
  Rng rng(3);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({Tensor::Randn(2, 3, &rng)}, &buffer).ok());
  std::vector<Tensor> wrong = {Tensor::Zeros(3, 2, true)};
  Status status = LoadParameters(&buffer, &wrong);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SerializeTest, RejectsTruncatedData) {
  Rng rng(4);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({Tensor::Randn(4, 4, &rng)}, &buffer).ok());
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  std::vector<Tensor> params = {Tensor::Zeros(4, 4, true)};
  EXPECT_FALSE(LoadParameters(&truncated, &params).ok());
}

TEST(SerializeTest, ModuleCheckpointRestoresBehaviour) {
  Rng rng(5);
  HapConfig config;
  config.feature_dim = 6;
  config.hidden_dim = 8;
  config.cluster_sizes = {3, 1};
  config.use_gumbel = false;
  auto model = MakeHapModel(config, &rng);
  model->set_training(false);
  Graph g = ConnectedErdosRenyi(7, 0.4, &rng);
  Tensor h = Tensor::Randn(7, 6, &rng);
  Tensor before = model->Embed(h, GraphLevel(g.AdjacencyMatrix()));

  const std::string path = ::testing::TempDir() + "/hap_ckpt_test.bin";
  ASSERT_TRUE(SaveModule(*model, path).ok());

  // A fresh model with different init must disagree, then agree once the
  // checkpoint is loaded.
  Rng rng2(99);
  auto restored = MakeHapModel(config, &rng2);
  restored->set_training(false);
  Tensor different = restored->Embed(h, GraphLevel(g.AdjacencyMatrix()));
  double gap = 0;
  for (int c = 0; c < before.cols(); ++c) {
    gap += std::abs(before.At(0, c) - different.At(0, c));
  }
  EXPECT_GT(gap, 1e-4);

  ASSERT_TRUE(LoadModule(restored.get(), path).ok());
  Tensor after = restored->Embed(h, GraphLevel(g.AdjacencyMatrix()));
  for (int c = 0; c < before.cols(); ++c) {
    EXPECT_NEAR(before.At(0, c), after.At(0, c), 1e-6);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileReturnsNotFound) {
  Rng rng(6);
  Linear layer(2, 2, &rng);
  EXPECT_EQ(LoadModule(&layer, "/nonexistent/ckpt.bin").code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Mutation tests: corrupt each header field of a valid checkpoint in turn
// and require a clean Status — never a crash, over-allocation, or silently
// truncated load.

TEST(SerializeMutationTest, RejectsCorruptedMagic) {
  std::string bytes = ValidCheckpointBytes();
  bytes[0] = 'X';
  EXPECT_EQ(LoadMutated(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(SerializeMutationTest, RejectsUnknownVersion) {
  std::string bytes = ValidCheckpointBytes();
  OverwriteAt<uint32_t>(&bytes, kVersionOffset, 7);
  EXPECT_EQ(LoadMutated(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(SerializeMutationTest, RejectsAbsurdTensorCountWithoutAllocating) {
  // A hostile u64::max count must be rejected by comparing against the
  // actual stream length — before any per-tensor work happens.
  std::string bytes = ValidCheckpointBytes();
  OverwriteAt<uint64_t>(&bytes, kCountOffset,
                        std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(LoadMutated(bytes).code(), StatusCode::kInvalidArgument);
  std::stringstream stream(bytes);
  EXPECT_FALSE(LoadCheckpoint(&stream).ok());
}

TEST(SerializeMutationTest, RejectsAbsurdRowsAndCols) {
  const uint32_t huge = std::numeric_limits<uint32_t>::max();
  for (size_t offset : {kFirstRowsOffset, kFirstColsOffset}) {
    std::string bytes = ValidCheckpointBytes();
    OverwriteAt<uint32_t>(&bytes, offset, huge);
    // In-place load: shape mismatch against the destination tensor.
    EXPECT_FALSE(LoadMutated(bytes).ok()) << "offset " << offset;
    // Allocating load: huge * huge values cannot fit the stream, so the
    // loader must error out instead of attempting the allocation.
    std::stringstream stream(bytes);
    EXPECT_EQ(LoadCheckpoint(&stream).status().code(),
              StatusCode::kInvalidArgument)
        << "offset " << offset;
  }
}

TEST(SerializeMutationTest, RejectsTruncationAtEveryBoundary) {
  const std::string bytes = ValidCheckpointBytes();
  // Cut inside the file header, inside the tensor header, at the start of
  // the data, and one float short of complete.
  for (size_t keep : {size_t{2}, kCountOffset + 3, kFirstColsOffset + 2,
                      bytes.size() - sizeof(float), bytes.size() - 1}) {
    EXPECT_FALSE(LoadMutated(bytes.substr(0, keep)).ok()) << "keep " << keep;
    std::stringstream stream(bytes.substr(0, keep));
    EXPECT_FALSE(LoadCheckpoint(&stream).ok()) << "keep " << keep;
  }
}

TEST(SerializeMutationTest, RejectsTrailingGarbage) {
  // Regression: extra bytes after the last tensor used to be silently
  // ignored, masking writer bugs and concatenated/mismatched files.
  std::string bytes = ValidCheckpointBytes() + "garbage";
  EXPECT_EQ(LoadMutated(bytes).code(), StatusCode::kInvalidArgument);
  std::stringstream stream(bytes);
  EXPECT_EQ(LoadCheckpoint(&stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializeMutationTest, FailedLoadLeavesDestinationUntouched) {
  // Regression: LoadParameters used to read directly into the destination
  // tensors, so a mid-stream failure left a torn half-new half-old model.
  Rng rng(7);
  std::stringstream good;
  ASSERT_TRUE(SaveParameters({Tensor::Randn(2, 2, &rng),
                              Tensor::Randn(3, 1, &rng)},
                             &good)
                  .ok());
  std::string bytes = good.str();
  bytes.resize(bytes.size() - 2);  // truncate inside the SECOND tensor

  std::vector<Tensor> dest = {Tensor::Full(2, 2, 5.0f),
                              Tensor::Full(3, 1, 5.0f)};
  std::stringstream stream(bytes);
  ASSERT_FALSE(LoadParameters(&stream, &dest).ok());
  for (const Tensor& t : dest) {
    for (int64_t i = 0; i < t.size(); ++i) {
      EXPECT_EQ(t.data()[i], 5.0f) << "destination was torn";
    }
  }
}

TEST(SerializeMutationTest, FailedLoadModuleLeavesModuleUntouched) {
  Rng rng(8);
  Linear layer(2, 2, &rng);
  std::vector<float> before;
  for (const Tensor& p : layer.Parameters()) {
    before.insert(before.end(), p.data(), p.data() + p.size());
  }

  const std::string path = ::testing::TempDir() + "/hap_torn_ckpt.bin";
  {
    std::stringstream buffer;
    ASSERT_TRUE(SaveParameters(layer.Parameters(), &buffer).ok());
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - 1);
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  ASSERT_FALSE(LoadModule(&layer, path).ok());
  std::vector<float> after;
  for (const Tensor& p : layer.Parameters()) {
    after.insert(after.end(), p.data(), p.data() + p.size());
  }
  EXPECT_EQ(before, after);
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadCheckpointRoundTripsShapesAndValues) {
  Rng rng(9);
  Tensor a = Tensor::Randn(3, 4, &rng);
  Tensor b = Tensor::Randn(1, 5, &rng);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({a, b}, &buffer).ok());
  StatusOr<std::vector<Tensor>> loaded = LoadCheckpoint(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const std::vector<Tensor>& tensors = loaded.value();
  ASSERT_EQ(tensors.size(), 2u);
  ASSERT_EQ(tensors[0].rows(), 3);
  ASSERT_EQ(tensors[1].cols(), 5);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(tensors[0].data()[i], a.data()[i]);
  }
}

TEST(SerializeTest, ReadCheckpointInfoSummarisesWithoutLoading) {
  Rng rng(10);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({Tensor::Randn(2, 3, &rng),
                              Tensor::Randn(4, 1, &rng)},
                             &buffer)
                  .ok());
  StatusOr<CheckpointInfo> result = ReadCheckpointInfo(&buffer);
  ASSERT_TRUE(result.ok()) << result.status().message();
  const CheckpointInfo& info = result.value();
  EXPECT_EQ(info.version, 1u);
  ASSERT_EQ(info.shapes.size(), 2u);
  EXPECT_EQ(info.shapes[0], (std::pair<uint32_t, uint32_t>{2, 3}));
  EXPECT_EQ(info.shapes[1], (std::pair<uint32_t, uint32_t>{4, 1}));
  EXPECT_EQ(info.total_values, 10u);
}

}  // namespace
}  // namespace hap
