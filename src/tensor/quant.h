// Reduced-precision inference support: the eval-only Precision knob, the
// calibration observer that harvests activation ranges from held-out
// forwards, and the per-replica quantized-weight store the serving path
// installs around each lane forward.
//
// Design (docs/PERFORMANCE.md "Reduced-precision inference"):
//  * Precision{fp32,int8} selects the MatMul forward kernel family
//    for the *current thread* via the RAII PrecisionScope. No scope (or a
//    fp32 scope) means the existing bit-deterministic kernels — training
//    and every parity test are untouched by construction.
//  * Quantization is per-tensor symmetric int8: scale = absmax / 127,
//    q = clamp(round(x / scale), -127, 127). Weight absmax comes from the
//    weight itself; activation absmax comes from calibration when a
//    CalibrationObserver saw the site, else from the live activation
//    (dynamic quantization).
//  * Calibration keys observations by the *weight* operand's TensorImpl
//    and serializes them as index entries against the module's
//    deterministic Parameters() order, so scales survive checkpointing
//    and can be re-bound to any replica's distinct weight tensors.
//
// Quantized kernels refuse taped tensors: MatMul HAP_CHECK-fails when a
// non-fp32 scope is active while grad is enabled and an operand requires
// grad. Serving forwards run under NoGradGuard, so only a training tape
// can trip this — by design, loudly.
#ifndef HAP_TENSOR_QUANT_H_
#define HAP_TENSOR_QUANT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace hap {

/// Forward-pass numeric precision for eval-only code. fp32 is the
/// bit-deterministic default; int8 runs symmetric per-tensor quantized
/// GEMMs with an fp32 dequant epilogue.
enum class Precision {
  kFp32 = 0,
  kInt8,
};

/// Parses "fp32" / "int8". Returns false on anything else.
bool ParsePrecision(const std::string& text, Precision* out);

/// Short lowercase name, the inverse of ParsePrecision.
const char* PrecisionName(Precision precision);

/// One calibrated MatMul site, keyed by the weight's position in the
/// module's deterministic Parameters() order (the serialization format —
/// replica weight pointers differ, indices do not). act_absmax == 0 means
/// "no activation observed here": the kernel falls back to dynamic
/// per-call activation quantization.
struct QuantScaleEntry {
  uint32_t param_index = 0;
  float act_absmax = 0.0f;
  float weight_absmax = 0.0f;
};

/// A weight operand pre-quantized for the int8 forward kernel: the
/// panels are packed transposed (n rows of k padded up to a multiple of
/// kernels::kInt8KPack, zero-filled) so the dot kernel streams both
/// operands unit-stride. Values are int8-range, stored pre-widened as
/// int16 for the vpmaddwd inner loop (see matmul_kernels.h).
struct WeightQuant {
  float weight_scale = 1.0f;   // absmax / 127 (1.0 for an all-zero weight)
  float act_absmax = 0.0f;     // calibrated activation absmax (0 = dynamic)
  int64_t k = 0;               // weight rows
  int64_t n = 0;               // weight cols
  std::vector<int16_t> packed; // n * RoundUpK(k) values, transposed + padded
};

/// Immutable per-replica store mapping a weight TensorImpl to its
/// pre-quantized panels. Built once at model load; read concurrently by
/// lane threads without synchronisation.
class QuantScales {
 public:
  QuantScales() = default;

  /// Binds `entries` to this replica's parameter list (the same
  /// deterministic order the entries were produced against) and packs
  /// each referenced weight. Entries whose index is out of range are
  /// ignored (a checkpoint from a different architecture fails shape
  /// checks long before this).
  static QuantScales Build(const std::vector<QuantScaleEntry>& entries,
                           const std::vector<Tensor>& params);

  /// The pre-quantized panels for a weight, or nullptr when the tensor
  /// was never calibrated (caller quantizes dynamically).
  const WeightQuant* Find(const void* weight_impl) const;

  const std::vector<QuantScaleEntry>& entries() const { return entries_; }
  bool empty() const { return by_impl_.empty(); }

 private:
  std::vector<QuantScaleEntry> entries_;
  std::unordered_map<const void*, WeightQuant> by_impl_;
};

/// Thread-local RAII execution scope: while alive, MatMul on this thread
/// dispatches the scoped precision's kernels (shape permitting) using
/// `scales` for weight operands. Scopes nest; destruction restores the
/// previous scope. fp32 scopes are inert.
class PrecisionScope {
 public:
  explicit PrecisionScope(Precision precision,
                          const QuantScales* scales = nullptr);
  ~PrecisionScope();
  PrecisionScope(const PrecisionScope&) = delete;
  PrecisionScope& operator=(const PrecisionScope&) = delete;

  /// The active precision on this thread (kFp32 when no scope is live).
  static Precision Current();
  /// The active scale store on this thread (nullptr when none).
  static const QuantScales* CurrentScales();

 private:
  Precision prev_precision_;
  const QuantScales* prev_scales_;
};

/// Thread-local RAII activation-range recorder. While alive on a thread,
/// every MatMul whose B operand is a parameter (requires_grad, with a
/// non-parameter A) records absmax(A) keyed by B's TensorImpl. Run the
/// held-out calibration forwards under one of these, then convert to
/// serializable index entries with Entries().
class CalibrationObserver {
 public:
  CalibrationObserver();
  ~CalibrationObserver();
  CalibrationObserver(const CalibrationObserver&) = delete;
  CalibrationObserver& operator=(const CalibrationObserver&) = delete;

  /// The observer installed on this thread, or nullptr.
  static CalibrationObserver* Current();

  /// Folds one activation range into the running per-site maximum.
  void Record(const void* weight_impl, float act_absmax);

  /// Converts observations into index entries against `params` (the same
  /// replica the calibration forwards ran on). Weight absmax is computed
  /// here, from the weight data itself. Sites whose weight is not in
  /// `params` are dropped. Entries are sorted by param_index.
  std::vector<QuantScaleEntry> Entries(
      const std::vector<Tensor>& params) const;

  size_t observed_sites() const { return absmax_.size(); }

 private:
  std::unordered_map<const void*, float> absmax_;
  CalibrationObserver* prev_;
};

}  // namespace hap

#endif  // HAP_TENSOR_QUANT_H_
