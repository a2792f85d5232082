#ifndef HAP_TENSOR_SERIALIZE_H_
#define HAP_TENSOR_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "tensor/module.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace hap {

/// Binary checkpoint format for parameter lists.
///
/// Layout: magic "HAPT" + u32 version + u64 tensor count, then per tensor
/// u32 rows, u32 cols, rows*cols little-endian f32. Version 2 appends a
/// quantization-scale section after the last tensor: u64 entry count,
/// then per entry u32 param_index + f32 act_absmax + f32 weight_absmax
/// (tensor/quant.h QuantScaleEntry, indices into the tensor list above,
/// each absmax finite and non-negative). Version 1 files (no scale
/// section) load everywhere; writers emit v1 unless scales are supplied.
/// Checkpoints are structural: loading requires the exact same parameter
/// shapes in the same order (i.e. the same model configuration), which is
/// verified.
///
/// Every loader treats the checkpoint as hostile input (a server reloads
/// checkpoints from disk while live): sizes claimed by the header are
/// validated against the stream length before anything is allocated,
/// truncation anywhere mid-stream fails cleanly, trailing garbage after
/// the last section is rejected, a scale entry naming no tensor or
/// holding a NaN, infinite or negative absmax is rejected, and a failed
/// load never leaves the destination half-written.

/// Writes `params` to `stream`. With non-empty `scales`, writes a v2
/// checkpoint carrying the quantization-scale section; refuses scale
/// entries a loader would reject.
Status SaveParameters(const std::vector<Tensor>& params, std::ostream* stream,
                      const std::vector<QuantScaleEntry>* scales = nullptr);

/// Reads a checkpoint from `stream` into `params` (in place; shapes must
/// match the checkpoint exactly). Atomic: on any error the tensors in
/// `params` are left untouched — a failed hot-reload must not corrupt the
/// model currently serving. When `scales` is non-null it receives the v2
/// scale section (cleared for v1 files); a null `scales` still validates
/// and skips the section.
Status LoadParameters(std::istream* stream, std::vector<Tensor>* params,
                      std::vector<QuantScaleEntry>* scales = nullptr);

/// Reads a checkpoint into freshly allocated tensors (shapes come from the
/// checkpoint itself). Requires a seekable stream: every claimed size is
/// checked against the remaining stream length *before* allocation, so a
/// hostile header (e.g. u64::max tensor count) errors instead of
/// attempting a huge allocation.
StatusOr<std::vector<Tensor>> LoadCheckpoint(std::istream* stream);

/// Header summary of a checkpoint (for inspection tooling); validates the
/// same way LoadCheckpoint does but does not materialise tensor data.
struct CheckpointInfo {
  uint32_t version = 0;
  std::vector<std::pair<uint32_t, uint32_t>> shapes;  // (rows, cols)
  uint64_t total_values = 0;
  uint64_t num_scales = 0;  // v2 quantization-scale entries (0 for v1)
};
StatusOr<CheckpointInfo> ReadCheckpointInfo(std::istream* stream);

/// Convenience: save/load a module's parameters to/from a file path.
/// The scale parameters mirror Save/LoadParameters above.
Status SaveModule(const Module& module, const std::string& path,
                  const std::vector<QuantScaleEntry>* scales = nullptr);
Status LoadModule(Module* module, const std::string& path,
                  std::vector<QuantScaleEntry>* scales = nullptr);

}  // namespace hap

#endif  // HAP_TENSOR_SERIALIZE_H_
