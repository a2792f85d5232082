#ifndef HAP_TENSOR_SEGMENT_OPS_H_
#define HAP_TENSOR_SEGMENT_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace hap {

// Segment kernels: the tensor-level substrate for cross-graph batched
// inference. A batch of N graphs is laid out as one concatenated node
// tensor whose rows are partitioned into contiguous *segments*, one per
// graph. The ops here reduce per segment while keeping the repo's
// bit-determinism contract: every output element keeps the exact
// accumulation order of the per-graph reference op, and threading only
// ever partitions disjoint outputs. They are forward-only: batched
// forwards are eval-only, so a call whose input would be taped
// CHECK-fails. See docs/BATCHING.md.

/// Row partition of a concatenated batch tensor. `offsets` is monotone
/// non-decreasing with offsets.front() == 0; segment s owns rows
/// [offsets[s], offsets[s+1]). Segments may be empty.
struct SegmentSpec {
  std::vector<int> offsets;

  /// Builds offsets {0, sizes[0], sizes[0]+sizes[1], ...}.
  static SegmentSpec FromSizes(const std::vector<int>& sizes);

  int num_segments() const { return static_cast<int>(offsets.size()) - 1; }
  int total_rows() const { return offsets.back(); }
  int begin(int s) const { return offsets[s]; }
  int end(int s) const { return offsets[s + 1]; }
  int size(int s) const { return offsets[s + 1] - offsets[s]; }

  /// CHECK-fails unless offsets is a valid partition of `rows` rows.
  void Validate(int rows) const;
};

/// Per-segment column sums: out (S, n); row s replicates ReduceSumRows
/// over segment s bit-for-bit (per-column double accumulation over rows in
/// ascending order, cast to float once). Empty segments yield a zero row.
Tensor SegmentSum(const Tensor& a, const SegmentSpec& seg);

/// Per-segment column means, bit-equal to the reference composition
/// MulScalar(ReduceSumRows(rows of s), 1.0f / size(s)). All segments must
/// be non-empty.
Tensor SegmentMean(const Tensor& a, const SegmentSpec& seg);

/// Per-segment column max -> (S, n), bit-equal to ReduceMaxRows on the
/// segment alone. All segments must be non-empty.
Tensor SegmentMax(const Tensor& a, const SegmentSpec& seg);

}  // namespace hap

#endif  // HAP_TENSOR_SEGMENT_OPS_H_
