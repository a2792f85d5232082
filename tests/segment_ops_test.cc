#include "tensor/segment_ops.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hap {
namespace {

// Every test here checks a segment kernel against the per-graph reduction
// it replaces, bit-for-bit, segment by segment (docs/BATCHING.md).

Tensor RandLeaf(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(rows, cols, &rng, 1.0f, /*requires_grad=*/false);
}

// Fresh leaf holding rows [lo, hi) of `src` (same bits).
Tensor SliceLeaf(const Tensor& src, int lo, int hi) {
  const int n = src.cols();
  std::vector<float> rows(src.data() + static_cast<size_t>(lo) * n,
                          src.data() + static_cast<size_t>(hi) * n);
  return Tensor::FromVector(hi - lo, n, rows);
}

// Row s of `batched` must equal `reference` applied to segment s alone.
template <typename Reference>
void ExpectMatchesPerSegment(const Tensor& x, const SegmentSpec& seg,
                             const Tensor& batched, Reference reference) {
  ASSERT_EQ(batched.rows(), seg.num_segments());
  ASSERT_EQ(batched.cols(), x.cols());
  for (int s = 0; s < seg.num_segments(); ++s) {
    if (seg.size(s) == 0) {
      for (int j = 0; j < x.cols(); ++j) ASSERT_EQ(batched.At(s, j), 0.0f);
      continue;
    }
    const Tensor want = reference(SliceLeaf(x, seg.begin(s), seg.end(s)));
    for (int j = 0; j < x.cols(); ++j) {
      ASSERT_EQ(want.At(0, j), batched.At(s, j)) << "segment " << s;
    }
  }
}

TEST(SegmentOpsTest, SegmentSumMatchesPerSegmentReference) {
  const SegmentSpec seg = SegmentSpec::FromSizes({3, 0, 1, 5, 2});
  Tensor x = RandLeaf(seg.total_rows(), 7, 101);
  ExpectMatchesPerSegment(x, seg, SegmentSum(x, seg),
                          [](const Tensor& t) { return ReduceSumRows(t); });
}

TEST(SegmentOpsTest, SegmentMeanMatchesPerSegmentReference) {
  const SegmentSpec seg = SegmentSpec::FromSizes({4, 1, 3});
  Tensor x = RandLeaf(seg.total_rows(), 5, 201);
  ExpectMatchesPerSegment(x, seg, SegmentMean(x, seg),
                          [](const Tensor& t) { return ReduceMeanRows(t); });
}

TEST(SegmentOpsTest, SegmentMaxMatchesPerSegmentReference) {
  const SegmentSpec seg = SegmentSpec::FromSizes({2, 6, 1});
  const int n = 4;
  Tensor x = RandLeaf(seg.total_rows(), n, 301);
  // Duplicate a row inside segment 1 to exercise tie handling.
  for (int j = 0; j < n; ++j) {
    x.mutable_data()[static_cast<size_t>(4) * n + j] = x.At(3, j);
  }
  ExpectMatchesPerSegment(x, seg, SegmentMax(x, seg),
                          [](const Tensor& t) { return ReduceMaxRows(t); });
}

TEST(SegmentOpsTest, FromSizesAndValidate) {
  const SegmentSpec seg = SegmentSpec::FromSizes({2, 0, 3});
  EXPECT_EQ(seg.offsets, (std::vector<int>{0, 2, 2, 5}));
  EXPECT_EQ(seg.num_segments(), 3);
  EXPECT_EQ(seg.total_rows(), 5);
  EXPECT_EQ(seg.size(1), 0);
  EXPECT_EQ(seg.begin(2), 2);
  seg.Validate(5);
}

TEST(SegmentOpsDeathTest, RefusesTapedInputs) {
  // Forward-only kernels: an input that would put the result on a tape
  // is refused, not silently detached.
  const SegmentSpec seg = SegmentSpec::FromSizes({2, 1});
  Rng rng(401);
  Tensor x = Tensor::Randn(3, 2, &rng, 1.0f, /*requires_grad=*/true);
  EXPECT_DEATH(SegmentSum(x, seg), "without a backward function");
  EXPECT_DEATH(SegmentMean(x, seg), "without a backward function");
  EXPECT_DEATH(SegmentMax(x, seg), "without a backward function");
  // Under NoGradGuard the same input runs untaped.
  NoGradGuard guard;
  EXPECT_FALSE(SegmentSum(x, seg).requires_grad());
}

TEST(SegmentOpsDeathTest, ValidateRejectsMismatchedRows) {
  const SegmentSpec seg = SegmentSpec::FromSizes({2, 3});
  EXPECT_DEATH(seg.Validate(4), "do not cover");
}

}  // namespace
}  // namespace hap
