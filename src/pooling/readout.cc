#include "pooling/readout.h"

#include "common/check.h"

namespace hap {

const char* CoarsenModeName(CoarsenMode mode) {
  switch (mode) {
    case CoarsenMode::kDense:
      return "dense";
    case CoarsenMode::kTopkSparse:
      return "topk";
    case CoarsenMode::kAuto:
      return "auto";
  }
  return "unknown";
}

bool ParseCoarsenMode(const std::string& text, CoarsenMode* mode) {
  if (text == "dense") {
    *mode = CoarsenMode::kDense;
  } else if (text == "topk") {
    *mode = CoarsenMode::kTopkSparse;
  } else if (text == "auto") {
    *mode = CoarsenMode::kAuto;
  } else {
    return false;
  }
  return true;
}

// Defaults for poolers that have not implemented a batched mirror; callers
// must consult SupportsBatched() and fall back to per-graph execution
// (docs/BATCHING.md) before reaching these.

Tensor Readout::ForwardBatched(const Tensor& h,
                               const BatchedLevel& level) const {
  (void)h;
  (void)level;
  HAP_CHECK(false) << "readout does not support batched execution; "
                      "check SupportsBatched() and fall back per graph";
  return Tensor();
}

BatchedCoarsenResult Coarsener::ForwardBatched(
    const Tensor& h, const BatchedLevel& level) const {
  (void)h;
  (void)level;
  HAP_CHECK(false) << "coarsener does not support batched execution; "
                      "check SupportsBatched() and fall back per graph";
  return BatchedCoarsenResult();
}

}  // namespace hap
