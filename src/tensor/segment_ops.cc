#include "tensor/segment_ops.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace hap {

namespace {

// Same grain policy as tensor/ops.cc: parallel blocks only ever split
// disjoint output rows, and each block must amortise the scheduling cost.
constexpr int64_t kParallelGrainWork = 1 << 15;

int64_t RowGrain(int64_t row_work) {
  return kParallelGrainWork / std::max<int64_t>(row_work, 1) + 1;
}

}  // namespace

SegmentSpec SegmentSpec::FromSizes(const std::vector<int>& sizes) {
  SegmentSpec seg;
  seg.offsets.reserve(sizes.size() + 1);
  seg.offsets.push_back(0);
  for (int size : sizes) {
    HAP_CHECK_GE(size, 0);
    seg.offsets.push_back(seg.offsets.back() + size);
  }
  return seg;
}

void SegmentSpec::Validate(int rows) const {
  HAP_CHECK_GE(static_cast<int>(offsets.size()), 2)
      << "SegmentSpec needs at least one segment";
  HAP_CHECK_EQ(offsets.front(), 0);
  for (size_t s = 1; s < offsets.size(); ++s) {
    HAP_CHECK_GE(offsets[s], offsets[s - 1]) << "offsets must be monotone";
  }
  HAP_CHECK_EQ(offsets.back(), rows)
      << "segment offsets do not cover the tensor's rows";
}

// The ops below pass no backward function: MakeOpResult refuses to tape
// a result without one, so a batched forward with grad enabled on its
// inputs CHECK-fails instead of recording a tape it cannot replay.

Tensor SegmentSum(const Tensor& a, const SegmentSpec& seg) {
  seg.Validate(a.rows());
  const int n = a.cols();
  const int num_segments = seg.num_segments();
  const std::vector<int>& offsets = seg.offsets;
  Tensor out = MakeOpResult(num_segments, n, {a}, nullptr);
  float* o = out.mutable_data();
  const float* adat = a.data();
  const int64_t rows_per_segment =
      seg.total_rows() / std::max(num_segments, 1) + 1;
  // Segment-blocked: each output row is one segment's column sums, kept in
  // the reference order (double accumulator, rows ascending, one cast).
  ParallelFor(0, num_segments, RowGrain(rows_per_segment * n),
              [&](int64_t slo, int64_t shi) {
                for (int64_t s = slo; s < shi; ++s) {
                  for (int j = 0; j < n; ++j) {
                    double sum = 0.0;
                    for (int i = offsets[s]; i < offsets[s + 1]; ++i) {
                      sum += adat[static_cast<size_t>(i) * n + j];
                    }
                    o[static_cast<size_t>(s) * n + j] =
                        static_cast<float>(sum);
                  }
                }
              });
  return out;
}

Tensor SegmentMean(const Tensor& a, const SegmentSpec& seg) {
  seg.Validate(a.rows());
  const int n = a.cols();
  const int num_segments = seg.num_segments();
  for (int s = 0; s < num_segments; ++s) {
    HAP_CHECK_GT(seg.size(s), 0) << "SegmentMean needs non-empty segments";
  }
  const std::vector<int>& offsets = seg.offsets;
  Tensor out = MakeOpResult(num_segments, n, {a}, nullptr);
  float* o = out.mutable_data();
  const float* adat = a.data();
  const int64_t rows_per_segment =
      seg.total_rows() / std::max(num_segments, 1) + 1;
  ParallelFor(0, num_segments, RowGrain(rows_per_segment * n),
              [&](int64_t slo, int64_t shi) {
                for (int64_t s = slo; s < shi; ++s) {
                  const float inv = 1.0f / static_cast<float>(
                                               offsets[s + 1] - offsets[s]);
                  for (int j = 0; j < n; ++j) {
                    double sum = 0.0;
                    for (int i = offsets[s]; i < offsets[s + 1]; ++i) {
                      sum += adat[static_cast<size_t>(i) * n + j];
                    }
                    o[static_cast<size_t>(s) * n + j] =
                        static_cast<float>(sum) * inv;
                  }
                }
              });
  return out;
}

Tensor SegmentMax(const Tensor& a, const SegmentSpec& seg) {
  seg.Validate(a.rows());
  const int n = a.cols();
  const int num_segments = seg.num_segments();
  Tensor out = MakeOpResult(num_segments, n, {a}, nullptr);
  float* o = out.mutable_data();
  const float* adat = a.data();
  for (int s = 0; s < num_segments; ++s) {
    HAP_CHECK_GT(seg.size(s), 0) << "SegmentMax needs non-empty segments";
    // First strict maximum per column, as ReduceMaxRows scans it.
    for (int j = 0; j < n; ++j) {
      float best = adat[static_cast<size_t>(seg.begin(s)) * n + j];
      for (int i = seg.begin(s) + 1; i < seg.end(s); ++i) {
        best = std::max(best, adat[static_cast<size_t>(i) * n + j]);
      }
      o[static_cast<size_t>(s) * n + j] = best;
    }
  }
  return out;
}

}  // namespace hap
