#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

namespace hap {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

namespace internal {

std::vector<float> AcquireBuffer(size_t size,
                                 std::shared_ptr<TensorArena>* arena) {
  const std::shared_ptr<TensorArena>& current = CurrentArena();
  if (current == nullptr || size == 0) return std::vector<float>(size, 0.0f);
  *arena = current;
  return current->Acquire(size);
}

TensorImpl::~TensorImpl() {
  // Return pooled buffers for reuse. Buffers that were moved out (empty)
  // or never arena-backed fall through to the normal vector destructor.
  if (data_arena != nullptr && !data.empty()) {
    data_arena->Release(std::move(data));
  }
  if (grad_arena != nullptr && !grad.empty()) {
    grad_arena->Release(std::move(grad));
  }
}

void TensorImpl::AcquireGrad() { grad = AcquireBuffer(data.size(), &grad_arena); }

}  // namespace internal

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

Tensor::Tensor(int rows, int cols, bool requires_grad) {
  HAP_CHECK_GE(rows, 0);
  HAP_CHECK_GE(cols, 0);
  impl_ = std::make_shared<internal::TensorImpl>();
  impl_->rows = rows;
  impl_->cols = cols;
  impl_->data = internal::AcquireBuffer(static_cast<size_t>(rows) * cols,
                                        &impl_->data_arena);
  impl_->requires_grad = requires_grad;
}

Tensor Tensor::FromVector(int rows, int cols, std::vector<float> values,
                          bool requires_grad) {
  HAP_CHECK_EQ(static_cast<int64_t>(values.size()),
               static_cast<int64_t>(rows) * cols);
  Tensor t(rows, cols, requires_grad);
  // The caller supplies the storage: hand the freshly acquired buffer
  // back to its pool and adopt `values` as a plain-heap buffer.
  if (t.impl_->data_arena != nullptr) {
    t.impl_->data_arena->Release(std::move(t.impl_->data));
    t.impl_->data_arena.reset();
  }
  t.impl_->data = std::move(values);
  return t;
}

Tensor Tensor::RowVector(std::vector<float> values, bool requires_grad) {
  const int n = static_cast<int>(values.size());
  return FromVector(1, n, std::move(values), requires_grad);
}

Tensor Tensor::Zeros(int rows, int cols, bool requires_grad) {
  return Tensor(rows, cols, requires_grad);
}

Tensor Tensor::Ones(int rows, int cols, bool requires_grad) {
  return Full(rows, cols, 1.0f, requires_grad);
}

Tensor Tensor::Full(int rows, int cols, float value, bool requires_grad) {
  Tensor t(rows, cols, requires_grad);
  std::fill(t.impl_->data.begin(), t.impl_->data.end(), value);
  return t;
}

Tensor Tensor::Identity(int n) {
  Tensor t(n, n);
  for (int i = 0; i < n; ++i) t.impl_->data[static_cast<size_t>(i) * n + i] = 1.0f;
  return t;
}

Tensor Tensor::Randn(int rows, int cols, Rng* rng, float stddev,
                     bool requires_grad) {
  HAP_CHECK(rng != nullptr);
  Tensor t(rows, cols, requires_grad);
  for (auto& v : t.impl_->data) {
    v = static_cast<float>(rng->Normal()) * stddev;
  }
  return t;
}

Tensor Tensor::Xavier(int rows, int cols, Rng* rng, bool requires_grad) {
  HAP_CHECK(rng != nullptr);
  const double a = std::sqrt(6.0 / (rows + cols));
  Tensor t(rows, cols, requires_grad);
  for (auto& v : t.impl_->data) {
    v = static_cast<float>(rng->Uniform(-a, a));
  }
  return t;
}

float Tensor::At(int r, int c) const {
  HAP_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols())
      << "index (" << r << "," << c << ") out of range for " << rows() << "x"
      << cols();
  return impl().data[static_cast<size_t>(r) * cols() + c];
}

void Tensor::Set(int r, int c, float value) {
  HAP_CHECK(impl().parents.empty())
      << "Set() on an op result would corrupt the autograd tape";
  HAP_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  impl_->data[static_cast<size_t>(r) * cols() + c] = value;
}

Tensor& Tensor::set_requires_grad(bool value) {
  HAP_CHECK(impl().parents.empty())
      << "set_requires_grad() is only valid on leaf tensors";
  impl_->requires_grad = value;
  return *this;
}

float Tensor::GradAt(int r, int c) const {
  HAP_CHECK(!impl().grad.empty()) << "no gradient recorded for this tensor";
  HAP_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  return impl().grad[static_cast<size_t>(r) * cols() + c];
}

void Tensor::ZeroGrad() {
  if (!impl().grad.empty()) {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }
}

float Tensor::Item() const {
  HAP_CHECK(rows() == 1 && cols() == 1)
      << "Item() requires a 1x1 tensor, got " << rows() << "x" << cols();
  return impl().data[0];
}

Tensor Tensor::Detach() const {
  Tensor out(rows(), cols(), /*requires_grad=*/false);
  out.impl_->data = impl().data;
  return out;
}

void Tensor::Backward() const {
  HAP_CHECK(rows() == 1 && cols() == 1)
      << "Backward() must start from a scalar loss";
  // Iterative post-order topological sort over the tape.
  std::vector<internal::TensorImpl*> topo;
  std::unordered_set<internal::TensorImpl*> visited;
  struct Frame {
    internal::TensorImpl* node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_child < frame.node->parents.size()) {
      internal::TensorImpl* child =
          frame.node->parents[frame.next_child++].get();
      if (visited.insert(child).second) stack.push_back({child, 0});
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }
  // Only nodes that require grad get a grad buffer; backward fns skip
  // gradient-free parents. This keeps tensors shared across data-parallel
  // workers (cached adjacency operators, dataset leaves) untouched by
  // Backward(), so concurrent backward passes never write to shared state.
  for (internal::TensorImpl* node : topo) {
    if (node->requires_grad) node->EnsureGrad();
  }
  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->backward_fn) node->backward_fn(*node);
  }
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor " << rows() << "x" << cols() << " [";
  const int64_t limit = std::min<int64_t>(size(), 64);
  for (int64_t i = 0; i < limit; ++i) {
    if (i > 0) out << ", ";
    out << impl().data[i];
  }
  if (size() > limit) out << ", ...";
  out << "]";
  return out.str();
}

Tensor Tensor::FromImpl(std::shared_ptr<internal::TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

Tensor MakeOpResult(int rows, int cols, std::vector<Tensor> inputs,
                    std::function<void(internal::TensorImpl&)> backward_fn) {
  return TapeResult(Tensor(rows, cols), std::move(inputs),
                    std::move(backward_fn));
}

Tensor TapeResult(Tensor result, std::vector<Tensor> inputs,
                  std::function<void(internal::TensorImpl&)> backward_fn) {
  internal::TensorImpl* impl = &result.impl();
  HAP_CHECK(!impl->requires_grad && impl->parents.empty())
      << "TapeResult needs a fresh untaped result";
  bool any_grad = false;
  for (const Tensor& input : inputs) {
    if (input.defined() && input.requires_grad()) {
      any_grad = true;
      break;
    }
  }
  if (any_grad && GradEnabled()) {
    HAP_CHECK(backward_fn != nullptr)
        << "taped op result without a backward function";
    impl->requires_grad = true;
    impl->parents.reserve(inputs.size());
    for (const Tensor& input : inputs) {
      if (input.defined()) impl->parents.push_back(input.impl_ptr());
    }
    impl->backward_fn = std::move(backward_fn);
  }
  return result;
}

}  // namespace hap
