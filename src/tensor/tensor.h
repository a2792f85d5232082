#ifndef HAP_TENSOR_TENSOR_H_
#define HAP_TENSOR_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/arena.h"

namespace hap {

namespace internal {

/// Backing storage + autograd bookkeeping for one tensor node. Reference-
/// counted and shared by the `Tensor` value handles; op results hold strong
/// references to their inputs so the tape stays alive until backward.
struct TensorImpl {
  int rows = 0;
  int cols = 0;
  std::vector<float> data;
  std::vector<float> grad;  // Allocated lazily by Tensor::Backward().
  bool requires_grad = false;

  // Arenas the buffers were drawn from (null for plain-heap buffers).
  // Held as shared_ptr so a tensor that outlives the scope that created
  // it can still return its buffers safely; the destructor releases each
  // non-empty buffer back to its arena for reuse. Buffers moved out of a
  // TensorImpl (ParallelBatchRunner harvesting grads) simply become
  // ordinary vectors — the arena is never a lifetime constraint.
  std::shared_ptr<TensorArena> data_arena;
  std::shared_ptr<TensorArena> grad_arena;

  // Autograd tape edges. `backward_fn` reads this node's grad and
  // accumulates into the parents' grads.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl&)> backward_fn;

  TensorImpl() = default;
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  int64_t size() const { return static_cast<int64_t>(rows) * cols; }
  void EnsureGrad() {
    if (grad.size() != data.size()) AcquireGrad();
  }
  // Slow path of EnsureGrad: draws the grad buffer from the calling
  // thread's current arena (or the heap when no scope is installed).
  void AcquireGrad();
};

// Returns a zero-filled buffer of `size` floats from the calling thread's
// current arena (recording it in *arena), or from the heap when no
// ArenaScope is installed. Used by tensor construction and MakeOpResult.
std::vector<float> AcquireBuffer(size_t size,
                                 std::shared_ptr<TensorArena>* arena);

}  // namespace internal

/// When true (the default), ops with differentiable inputs record backward
/// functions. Wrap evaluation-only code in a NoGradGuard to skip taping.
bool GradEnabled();

/// RAII scope that disables autograd taping (used during evaluation so no
/// tape memory is retained).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// A 2-D float tensor with reverse-mode autograd.
///
/// `Tensor` is a cheap value handle over shared storage: copies alias the
/// same data (like a shared_ptr), which is what optimizers rely on to update
/// parameters in place. All tensors are rank-2; row vectors are 1xN and
/// column vectors Nx1. The default-constructed Tensor is null and only
/// useful as a placeholder.
class Tensor {
 public:
  Tensor() = default;

  /// Creates a zero-filled rows x cols tensor.
  Tensor(int rows, int cols, bool requires_grad = false);

  /// Builds a tensor from row-major `values` (size must be rows*cols).
  static Tensor FromVector(int rows, int cols, std::vector<float> values,
                           bool requires_grad = false);

  /// Builds a 1xN row vector.
  static Tensor RowVector(std::vector<float> values,
                          bool requires_grad = false);

  static Tensor Zeros(int rows, int cols, bool requires_grad = false);
  static Tensor Ones(int rows, int cols, bool requires_grad = false);
  static Tensor Full(int rows, int cols, float value,
                     bool requires_grad = false);
  static Tensor Identity(int n);

  /// I.i.d. normal(0, stddev) entries drawn from `rng`.
  static Tensor Randn(int rows, int cols, Rng* rng, float stddev = 1.0f,
                      bool requires_grad = false);

  /// Glorot/Xavier-uniform initialisation: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
  static Tensor Xavier(int rows, int cols, Rng* rng,
                       bool requires_grad = true);

  bool defined() const { return impl_ != nullptr; }
  int rows() const { return impl().rows; }
  int cols() const { return impl().cols; }
  int64_t size() const { return impl().size(); }

  float At(int r, int c) const;
  /// Sets an element. Only valid on leaf tensors (no recorded parents):
  /// mutating an op output would silently corrupt the tape.
  void Set(int r, int c, float value);

  const float* data() const { return impl().data.data(); }
  float* mutable_data() { return impl_->data.data(); }
  const std::vector<float>& values() const { return impl().data; }

  bool requires_grad() const { return impl().requires_grad; }
  /// Marks this tensor as a trainable leaf.
  Tensor& set_requires_grad(bool value);

  /// Gradient of the last Backward() with respect to this tensor. Zero-sized
  /// until backward has touched this node.
  const std::vector<float>& grad() const { return impl().grad; }
  float GradAt(int r, int c) const;
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this (scalar, 1x1) tensor.
  /// Accumulates into `.grad()` of every reachable tensor that requires
  /// grad. Gradients are accumulated, not overwritten; call ZeroGrad() on
  /// parameters (or use an optimizer) between steps.
  void Backward() const;

  /// Scalar convenience: value of a 1x1 tensor.
  float Item() const;

  /// Deep copy with no autograd history (a fresh leaf).
  Tensor Detach() const;

  /// Human-readable dump (small tensors only; for debugging and tests).
  std::string ToString() const;

  /// Internal: access the implementation node (used by ops).
  const std::shared_ptr<internal::TensorImpl>& impl_ptr() const {
    return impl_;
  }
  internal::TensorImpl& impl() const {
    HAP_CHECK(impl_ != nullptr) << "use of undefined Tensor";
    return *impl_;
  }

  /// Internal: wraps an existing impl node.
  static Tensor FromImpl(std::shared_ptr<internal::TensorImpl> impl);

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

/// Creates an op-result tensor: shape, inputs, and a backward function that
/// accumulates into the inputs' grads. Skips taping when grad is globally
/// disabled or no input requires grad. Used by ops.cc and by user-defined
/// custom ops.
Tensor MakeOpResult(int rows, int cols,
                    std::vector<Tensor> inputs,
                    std::function<void(internal::TensorImpl&)> backward_fn);

/// MakeOpResult for a result the op has already computed: tapes `result`,
/// a fresh untaped tensor no one else holds, over `inputs` under the same
/// condition, and returns it. Fused ops use it when their backward
/// function captures state their forward produces.
Tensor TapeResult(Tensor result, std::vector<Tensor> inputs,
                  std::function<void(internal::TensorImpl&)> backward_fn);

/// True when MakeOpResult over `inputs` records a backward function: grad
/// is enabled and some input requires grad. Ops whose closure is costly to
/// build (the sparse kernels copy CSR arrays into theirs) build it only
/// when this holds and pass an empty function otherwise; MakeOpResult
/// refuses an empty function on a taped result.
template <typename... Inputs>
bool WillTape(const Inputs&... inputs) {
  return GradEnabled() &&
         ((inputs.defined() && inputs.requires_grad()) || ...);
}

}  // namespace hap

#endif  // HAP_TENSOR_TENSOR_H_
