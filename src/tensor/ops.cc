#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/matmul_kernels.h"
#include "tensor/quant.h"

namespace hap {

namespace {

internal::TensorImpl& Parent(internal::TensorImpl& node, size_t i) {
  return *node.parents[i];
}

// Parallel kernels here (kParallelGrainWork and RowGrain,
// common/thread_pool.h) only split *disjoint output rows/elements* across
// blocks and keep each output's summation order fixed, so results are
// bit-identical to the serial path at every thread count. See
// docs/THREADING.md.

// --- Reduced-precision MatMul forwards (tensor/quant.h) ---
// These produce untaped results only: MatMulForward's guard refuses
// non-fp32 scopes whenever the product would land on the tape, so they
// need no backward function.

// While a CalibrationObserver is installed on this thread, an
// activation·parameter product records the activation's absmax keyed by
// the parameter, if the parameter's shape can ever dispatch int8. The
// requires_grad asymmetry identifies the site shape: parameters keep
// requires_grad in eval, activations never have it under the NoGradGuard
// the calibration forwards run in.
inline void MaybeRecordCalibration(const Tensor& a, const Tensor& b) {
  CalibrationObserver* cal = CalibrationObserver::Current();
  if (cal == nullptr) return;
  if (b.requires_grad() && !a.requires_grad() &&
      kernels::WeightShapeAdmitsInt8(b.rows(), b.cols())) {
    cal->Record(b.impl_ptr().get(), kernels::AbsMax(a.data(), a.size()));
  }
}

// int8 product. The weight operand reuses pre-quantized panels (and the
// calibrated activation scale) when the active QuantScales knows it;
// everything else is quantized dynamically per call.
Tensor Int8MatMul(const Tensor& a, const Tensor& b) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  static obs::Histogram* op_ns = obs::GetHistogram(obs::names::kMatMulNs);
  if (obs::HotCountersEnabled()) {
    static obs::Counter* calls = obs::GetCounter(obs::names::kMatMulCalls);
    static obs::Counter* flops = obs::GetCounter(obs::names::kMatMulFlops);
    static obs::Counter* disp =
        obs::GetCounter(obs::names::kMatMulDispatchInt8);
    calls->Increment();
    flops->Add(2ull * m * k * n);
    disp->Increment();
  }
  obs::ScopedTimerNs timer(op_ns);
  const int64_t k_pad = kernels::RoundUpK(k);

  const QuantScales* scales = PrecisionScope::CurrentScales();
  const WeightQuant* wq =
      scales == nullptr ? nullptr : scales->Find(b.impl_ptr().get());
  const int16_t* bq;
  float b_scale;
  float a_absmax;
  if (wq != nullptr) {
    bq = wq->packed.data();
    b_scale = wq->weight_scale;
    a_absmax = wq->act_absmax > 0.0f
                   ? wq->act_absmax
                   : kernels::AbsMax(a.data(), a.size());
  } else {
    const float b_absmax = kernels::AbsMax(b.data(), b.size());
    b_scale = b_absmax > 0.0f ? b_absmax / 127.0f : 1.0f;
    int16_t* bbuf = kernels::Int8ScratchB(
        static_cast<size_t>(kernels::Int8PackedBCount(k, n)));
    kernels::PackBInt8Panels(b.data(), k, n, 1.0f / b_scale, bbuf);
    bq = bbuf;
    a_absmax = kernels::AbsMax(a.data(), a.size());
  }
  const float a_scale = a_absmax > 0.0f ? a_absmax / 127.0f : 1.0f;
  int16_t* aq = kernels::Int8ScratchA(static_cast<size_t>(m) * k_pad);
  kernels::PackAInt8(a.data(), m, k, 1.0f / a_scale, aq);
  const float scale = a_scale * b_scale;

  Tensor out(m, n);
  float* o = out.mutable_data();
  ParallelFor(0, m, RowGrain(k_pad * n), [&](int64_t lo, int64_t hi) {
    kernels::Int8GemmRows(aq, bq, o, k_pad, n, scale, lo, hi);
  });
  return out;
}

// MatMul's forward without the tape: the calibration record, the
// precision dispatch with its refusal to tape a reduced-precision
// product, the counters and the kernel. Returns a fresh untaped result.
Tensor MatMulForward(const Tensor& a, const Tensor& b) {
  HAP_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  MaybeRecordCalibration(a, b);
  if (const Precision prec = PrecisionScope::Current();
      prec != Precision::kFp32) {
    // Reduced precision is eval-only: refuse loudly rather than silently
    // corrupting a training tape with non-deterministic forward bits.
    HAP_CHECK(!GradEnabled() || (!a.requires_grad() && !b.requires_grad()))
        << "reduced-precision MatMul (" << PrecisionName(prec)
        << ") refuses taped tensors; wrap eval-only code in NoGradGuard";
    if (prec == Precision::kInt8 && kernels::ShapeWantsInt8(m, k, n)) {
      return Int8MatMul(a, b);
    }
    // Small-shape int8 falls through: quantize+pack costs more than the
    // fp32 blocked kernels save there (docs/PERFORMANCE.md).
  }
  // Per-kernel counters tick on every GEMM, so they guard on the hot
  // switch (one relaxed load when off); the timing histogram only records
  // when detailed metrics are on. Neither touches the math.
  static obs::Histogram* op_ns = obs::GetHistogram(obs::names::kMatMulNs);
  if (obs::HotCountersEnabled()) {
    static obs::Counter* calls = obs::GetCounter(obs::names::kMatMulCalls);
    static obs::Counter* flops = obs::GetCounter(obs::names::kMatMulFlops);
    static obs::Counter* disp_blocked =
        obs::GetCounter(obs::names::kMatMulDispatchBlocked);
    calls->Increment();
    flops->Add(2ull * m * k * n);
    disp_blocked->Increment();
  }
  obs::ScopedTimerNs timer(op_ns);
  Tensor out(m, n);
  AddMatMul(a.data(), b.data(), out.mutable_data(), m, k, n);
  return out;
}

// max(x, 0) without a branch: MAXSS returns its second operand (+0) when
// the first is NaN or a zero of either sign, which is exactly
// x > 0 ? x : 0. A compare-and-jump here mispredicts on about half of
// the elements of an activation with random signs.
inline float ReluScalar(float x) {
#if defined(__SSE2__)
  return _mm_cvtss_f32(_mm_max_ss(_mm_set_ss(x), _mm_setzero_ps()));
#else
  return x > 0.0f ? x : 0.0f;
#endif
}

// ReLU's derivative x > 0 ? 1 : 0, branch-free for the same reason.
inline float ReluMask(float x) {
#if defined(__SSE2__)
  return _mm_cvtss_f32(_mm_and_ps(_mm_cmpgt_ss(_mm_set_ss(x), _mm_setzero_ps()),
                                  _mm_set_ss(1.0f)));
#else
  return x > 0.0f ? 1.0f : 0.0f;
#endif
}

// Dense's epilogue over rows [lo, hi) of the row-major (·, n) buffer `o`,
// in place: o = act(o + bias) with `bias` n floats or nullptr. Each
// element rounds the bias add once and then applies max(·, 0) or
// std::tanh, as the bias-row add and Relu or Tanh did as separate ops.
void BiasActivationRows(float* o, const float* bias, int64_t n,
                        Activation activation, int64_t lo, int64_t hi) {
  const bool relu = activation == Activation::kRelu;
  for (int64_t i = lo; i < hi; ++i) {
    float* row = o + i * n;
    if (activation == Activation::kTanh) {
      for (int64_t j = 0; j < n; ++j) {
        row[j] = std::tanh(bias != nullptr ? row[j] + bias[j] : row[j]);
      }
      continue;
    }
    int64_t j = 0;
#if defined(__SSE2__)
    const __m128 zero = _mm_setzero_ps();
    for (; j + 4 <= n; j += 4) {
      __m128 v = _mm_loadu_ps(row + j);
      if (bias != nullptr) v = _mm_add_ps(v, _mm_loadu_ps(bias + j));
      if (relu) v = _mm_max_ps(v, zero);
      _mm_storeu_ps(row + j, v);
    }
#endif
    for (; j < n; ++j) {
      const float v = bias != nullptr ? row[j] + bias[j] : row[j];
      row[j] = relu ? ReluScalar(v) : v;
    }
  }
}

// Dense's backward. dz, the product's gradient, is formed as the
// separate ops' tape formed it: each of the activation node and the bias
// node added its contribution to a zero-filled buffer, so dz carries one
// `0.0f +` per node and -0 normalises the same way. The activation's
// derivative comes from the output y: y > 0 exactly when the
// pre-activation is, and tanh' = 1 - y². The bias column sums run over
// rows ascending, from what the bias node received.
void DenseBackward(internal::TensorImpl& node, int m, int k, int n,
                   Activation activation, bool has_bias) {
  internal::TensorImpl& px = Parent(node, 0);
  internal::TensorImpl& pw = Parent(node, 1);
  const float* g = node.grad.data();
  const float* y = node.data.data();
  std::vector<float> dz(node.grad.size());
  float* d = dz.data();
  ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t e = lo * n; e < hi * n; ++e) {
      float v = g[e];
      if (activation == Activation::kRelu) {
        v = 0.0f + v * ReluMask(y[e]);
      } else if (activation == Activation::kTanh) {
        v = 0.0f + v * (1.0f - y[e] * y[e]);
      }
      d[e] = has_bias ? 0.0f + v : v;
    }
  });
  if (has_bias) {
    internal::TensorImpl& pb = Parent(node, 2);
    if (pb.requires_grad) {
      pb.EnsureGrad();
      // Without an activation the bias node read the output's gradient.
      const float* src = activation == Activation::kNone ? g : d;
      float* gb = pb.grad.data();
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) gb[j] += src[i * n + j];
      }
    }
  }
  if (px.requires_grad) {
    px.EnsureGrad();  // dx += dz · Wᵀ
    AddMatMulBt(d, pw.data.data(), px.grad.data(), m, k, n);
  }
  if (pw.requires_grad) {
    pw.EnsureGrad();  // dW += xᵀ · dz
    AddMatMulAt(px.data.data(), d, pw.grad.data(), m, k, n);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out = MatMulForward(a, b);
  return TapeResult(
      std::move(out), {a, b}, [m, k, n](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        internal::TensorImpl& pb = Parent(node, 1);
        // Each parent accumulates only if it requires grad: gradient-free
        // inputs (cached propagation operators, dataset tensors) are
        // skipped, which both avoids the wasted O(mkn) work and keeps
        // tensors shared across data-parallel workers free of concurrent
        // grad writes.
        if (pa.requires_grad) {
          pa.EnsureGrad();  // dA += dOut * B^T
          AddMatMulBt(node.grad.data(), pb.data.data(), pa.grad.data(), m, k,
                      n);
        }
        if (pb.requires_grad) {
          pb.EnsureGrad();  // dB += A^T * dOut
          AddMatMulAt(pa.data.data(), node.grad.data(), pb.grad.data(), m, k,
                      n);
        }
      });
}

Tensor Dense(const Tensor& x, const Tensor& w, const Tensor& bias,
             Activation activation) {
  const bool has_bias = bias.defined();
  if (!has_bias && activation == Activation::kNone) return MatMul(x, w);
  if (has_bias) {
    HAP_CHECK_EQ(bias.rows(), 1);
    HAP_CHECK_EQ(bias.cols(), w.cols());
  }
  Tensor out = MatMulForward(x, w);
  const int m = out.rows(), k = x.cols(), n = out.cols();
  float* o = out.mutable_data();
  const float* b = has_bias ? bias.data() : nullptr;
  ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
    BiasActivationRows(o, b, n, activation, lo, hi);
  });
  if (!WillTape(x, w, bias)) return out;
  return TapeResult(
      std::move(out), {x, w, bias},
      [m, k, n, activation, has_bias](internal::TensorImpl& node) {
        DenseBackward(node, m, k, n, activation, has_bias);
      });
}

// All three split output rows over the pool, and each output keeps the
// naive reference's per-element accumulation order
// (tensor/matmul_kernels.h), so the bits do not depend on the thread
// count.
void AddMatMul(const float* a, const float* b, float* out, int64_t m,
               int64_t k, int64_t n) {
  // The kernel packs B into column panels once and keeps a 4x16 output
  // tile in registers.
  const float* packed_b = kernels::PackBPanels(b, k, n);
  ParallelFor(0, m, RowGrain(k * n), [&](int64_t lo, int64_t hi) {
    kernels::BlockedForwardRows(a, packed_b, b, out, k, n, lo, hi);
  });
}

void AddMatMulBt(const float* g, const float* b, float* out, int64_t m,
                 int64_t k, int64_t n) {
  const float* packed_bt = kernels::PackBTransposed(b, k, n);
  ParallelFor(0, m, RowGrain(k * n), [&](int64_t lo, int64_t hi) {
    kernels::BlockedGradARows(g, packed_bt, b, out, k, n, lo, hi);
  });
}

void AddMatMulAt(const float* a, const float* g, float* out, int64_t m,
                 int64_t k, int64_t n) {
  // For each output (p, j) the sum runs over i ascending.
  ParallelFor(0, k, RowGrain(m * n), [&](int64_t lo, int64_t hi) {
    kernels::BlockedGradBRows(a, g, out, m, k, n, lo, hi);
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  HAP_CHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << a.rows() << "x" << a.cols() << " vs " << b.rows() << "x" << b.cols();
  Tensor out = MakeOpResult(
      a.rows(), a.cols(), {a, b}, [](internal::TensorImpl& node) {
        for (size_t p = 0; p < 2; ++p) {
          internal::TensorImpl& parent = Parent(node, p);
          if (!parent.requires_grad) continue;
          parent.EnsureGrad();
          ParallelFor(0, static_cast<int64_t>(node.grad.size()),
                      kParallelGrainWork, [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          parent.grad[i] += node.grad[i];
                        }
                      });
        }
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const float* bd = b.data();
  ParallelFor(0, a.size(), kParallelGrainWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) o[i] = ad[i] + bd[i];
  });
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  HAP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = MakeOpResult(a.rows(), a.cols(), {a, b},
                            [](internal::TensorImpl& node) {
                              internal::TensorImpl& pa = Parent(node, 0);
                              internal::TensorImpl& pb = Parent(node, 1);
                              if (pa.requires_grad) {
                                pa.EnsureGrad();
                                ParallelFor(
                                    0, static_cast<int64_t>(node.grad.size()),
                                    kParallelGrainWork,
                                    [&](int64_t lo, int64_t hi) {
                                      for (int64_t i = lo; i < hi; ++i) {
                                        pa.grad[i] += node.grad[i];
                                      }
                                    });
                              }
                              if (pb.requires_grad) {
                                pb.EnsureGrad();
                                ParallelFor(
                                    0, static_cast<int64_t>(node.grad.size()),
                                    kParallelGrainWork,
                                    [&](int64_t lo, int64_t hi) {
                                      for (int64_t i = lo; i < hi; ++i) {
                                        pb.grad[i] -= node.grad[i];
                                      }
                                    });
                              }
                            });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const float* bd = b.data();
  ParallelFor(0, a.size(), kParallelGrainWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) o[i] = ad[i] - bd[i];
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  HAP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = MakeOpResult(a.rows(), a.cols(), {a, b},
                            [](internal::TensorImpl& node) {
                              internal::TensorImpl& pa = Parent(node, 0);
                              internal::TensorImpl& pb = Parent(node, 1);
                              if (pa.requires_grad) {
                                pa.EnsureGrad();
                                ParallelFor(
                                    0, static_cast<int64_t>(node.grad.size()),
                                    kParallelGrainWork,
                                    [&](int64_t lo, int64_t hi) {
                                      for (int64_t i = lo; i < hi; ++i) {
                                        pa.grad[i] +=
                                            node.grad[i] * pb.data[i];
                                      }
                                    });
                              }
                              if (pb.requires_grad) {
                                pb.EnsureGrad();
                                ParallelFor(
                                    0, static_cast<int64_t>(node.grad.size()),
                                    kParallelGrainWork,
                                    [&](int64_t lo, int64_t hi) {
                                      for (int64_t i = lo; i < hi; ++i) {
                                        pb.grad[i] +=
                                            node.grad[i] * pa.data[i];
                                      }
                                    });
                              }
                            });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const float* bd = b.data();
  ParallelFor(0, a.size(), kParallelGrainWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) o[i] = ad[i] * bd[i];
  });
  return out;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  HAP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = MakeOpResult(
      a.rows(), a.cols(), {a, b}, [](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        internal::TensorImpl& pb = Parent(node, 1);
        if (pa.requires_grad) {
          pa.EnsureGrad();
          ParallelFor(0, static_cast<int64_t>(node.grad.size()),
                      kParallelGrainWork, [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          const float inv = 1.0f / pb.data[i];
                          pa.grad[i] += node.grad[i] * inv;
                        }
                      });
        }
        if (pb.requires_grad) {
          pb.EnsureGrad();
          ParallelFor(0, static_cast<int64_t>(node.grad.size()),
                      kParallelGrainWork, [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          const float inv = 1.0f / pb.data[i];
                          pb.grad[i] -= node.grad[i] * pa.data[i] * inv * inv;
                        }
                      });
        }
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const float* bd = b.data();
  ParallelFor(0, a.size(), kParallelGrainWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) o[i] = ad[i] / bd[i];
  });
  return out;
}

Tensor ScaleRows(const Tensor& a, const Tensor& scale) {
  HAP_CHECK_EQ(scale.cols(), 1);
  HAP_CHECK_EQ(scale.rows(), a.rows());
  const int m = a.rows(), n = a.cols();
  Tensor out =
      MakeOpResult(m, n, {a, scale}, [m, n](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        internal::TensorImpl& ps = Parent(node, 1);
        // Row-parallel: row i of pa.grad and ps.grad[i] are block-private.
        if (pa.requires_grad) {
          pa.EnsureGrad();
          ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              const float s = ps.data[i];
              for (int j = 0; j < n; ++j) {
                pa.grad[static_cast<size_t>(i) * n + j] +=
                    node.grad[static_cast<size_t>(i) * n + j] * s;
              }
            }
          });
        }
        if (ps.requires_grad) {
          ps.EnsureGrad();
          ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              for (int j = 0; j < n; ++j) {
                ps.grad[i] += node.grad[static_cast<size_t>(i) * n + j] *
                              pa.data[static_cast<size_t>(i) * n + j];
              }
            }
          });
        }
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const float* sd = scale.data();
  ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float s = sd[i];
      for (int j = 0; j < n; ++j) {
        o[static_cast<size_t>(i) * n + j] =
            ad[static_cast<size_t>(i) * n + j] * s;
      }
    }
  });
  return out;
}

Tensor ScaleCols(const Tensor& a, const Tensor& scale) {
  HAP_CHECK_EQ(scale.rows(), 1);
  HAP_CHECK_EQ(scale.cols(), a.cols());
  const int m = a.rows(), n = a.cols();
  Tensor out =
      MakeOpResult(m, n, {a, scale}, [m, n](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        internal::TensorImpl& ps = Parent(node, 1);
        if (pa.requires_grad) {
          pa.EnsureGrad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              pa.grad[static_cast<size_t>(i) * n + j] +=
                  node.grad[static_cast<size_t>(i) * n + j] * ps.data[j];
            }
          }
        }
        if (ps.requires_grad) {
          ps.EnsureGrad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              ps.grad[j] += node.grad[static_cast<size_t>(i) * n + j] *
                            pa.data[static_cast<size_t>(i) * n + j];
            }
          }
        }
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const float* sd = scale.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      o[static_cast<size_t>(i) * n + j] =
          ad[static_cast<size_t>(i) * n + j] * sd[j];
    }
  }
  return out;
}

Tensor OuterSum(const Tensor& col, const Tensor& row) {
  HAP_CHECK_EQ(col.cols(), 1);
  HAP_CHECK_EQ(row.rows(), 1);
  const int m = col.rows(), n = row.cols();
  Tensor out =
      MakeOpResult(m, n, {col, row}, [m, n](internal::TensorImpl& node) {
        internal::TensorImpl& pc = Parent(node, 0);
        internal::TensorImpl& pr = Parent(node, 1);
        if (pc.requires_grad) {
          pc.EnsureGrad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              pc.grad[i] += node.grad[static_cast<size_t>(i) * n + j];
            }
          }
        }
        if (pr.requires_grad) {
          pr.EnsureGrad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              pr.grad[j] += node.grad[static_cast<size_t>(i) * n + j];
            }
          }
        }
      });
  float* o = out.mutable_data();
  const float* cd = col.data();
  const float* rd = row.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      o[static_cast<size_t>(i) * n + j] = cd[i] + rd[j];
    }
  }
  return out;
}

Tensor MulScalar(const Tensor& a, float c) {
  Tensor out =
      MakeOpResult(a.rows(), a.cols(), {a}, [c](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        pa.EnsureGrad();
        ParallelFor(0, static_cast<int64_t>(node.grad.size()),
                    kParallelGrainWork, [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        pa.grad[i] += node.grad[i] * c;
                      }
                    });
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  ParallelFor(0, a.size(), kParallelGrainWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) o[i] = ad[i] * c;
  });
  return out;
}

Tensor AddScalar(const Tensor& a, float c) {
  Tensor out =
      MakeOpResult(a.rows(), a.cols(), {a}, [](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        pa.EnsureGrad();
        for (size_t i = 0; i < node.grad.size(); ++i) {
          pa.grad[i] += node.grad[i];
        }
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const int64_t size = a.size();
  for (int64_t i = 0; i < size; ++i) o[i] = ad[i] + c;
  return out;
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Transpose(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeOpResult(n, m, {a}, [m, n](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        for (int j = 0; j < n; ++j) {
          pa.grad[static_cast<size_t>(i) * n + j] +=
              node.grad[static_cast<size_t>(j) * m + i];
        }
      }
    });
  });
  float* o = out.mutable_data();
  const float* ad = a.data();
  ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int j = 0; j < n; ++j) {
        o[static_cast<size_t>(j) * m + i] = ad[static_cast<size_t>(i) * n + j];
      }
    }
  });
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  HAP_CHECK_EQ(a.rows(), b.rows());
  const int m = a.rows(), na = a.cols(), nb = b.cols();
  Tensor out =
      MakeOpResult(m, na + nb, {a, b}, [m, na, nb](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        internal::TensorImpl& pb = Parent(node, 1);
        const int n = na + nb;
        if (pa.requires_grad) {
          pa.EnsureGrad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < na; ++j) {
              pa.grad[static_cast<size_t>(i) * na + j] +=
                  node.grad[static_cast<size_t>(i) * n + j];
            }
          }
        }
        if (pb.requires_grad) {
          pb.EnsureGrad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < nb; ++j) {
              pb.grad[static_cast<size_t>(i) * nb + j] +=
                  node.grad[static_cast<size_t>(i) * n + na + j];
            }
          }
        }
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  const float* bd = b.data();
  const int n = na + nb;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < na; ++j) {
      o[static_cast<size_t>(i) * n + j] = ad[static_cast<size_t>(i) * na + j];
    }
    for (int j = 0; j < nb; ++j) {
      o[static_cast<size_t>(i) * n + na + j] =
          bd[static_cast<size_t>(i) * nb + j];
    }
  }
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  HAP_CHECK(!parts.empty());
  const int n = parts[0].cols();
  int total_rows = 0;
  for (const Tensor& p : parts) {
    HAP_CHECK_EQ(p.cols(), n);
    total_rows += p.rows();
  }
  std::vector<int> row_offsets(parts.size());
  {
    int off = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      row_offsets[p] = off;
      off += parts[p].rows();
    }
  }
  Tensor out = MakeOpResult(
      total_rows, n, parts, [row_offsets, n](internal::TensorImpl& node) {
        for (size_t p = 0; p < node.parents.size(); ++p) {
          internal::TensorImpl& parent = Parent(node, p);
          if (!parent.requires_grad) continue;
          parent.EnsureGrad();
          const size_t offset = static_cast<size_t>(row_offsets[p]) * n;
          for (size_t i = 0; i < parent.grad.size(); ++i) {
            parent.grad[i] += node.grad[offset + i];
          }
        }
      });
  float* o = out.mutable_data();
  for (size_t p = 0; p < parts.size(); ++p) {
    const size_t offset = static_cast<size_t>(row_offsets[p]) * n;
    std::copy(parts[p].values().begin(), parts[p].values().end(), o + offset);
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int r0, int r1) {
  HAP_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows());
  const int n = a.cols();
  Tensor out =
      MakeOpResult(r1 - r0, n, {a}, [r0, n](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        pa.EnsureGrad();
        const size_t offset = static_cast<size_t>(r0) * n;
        for (size_t i = 0; i < node.grad.size(); ++i) {
          pa.grad[offset + i] += node.grad[i];
        }
      });
  std::copy(a.values().begin() + static_cast<size_t>(r0) * n,
            a.values().begin() + static_cast<size_t>(r1) * n,
            out.mutable_data());
  return out;
}

Tensor SliceCols(const Tensor& a, int c0, int c1) {
  HAP_CHECK(0 <= c0 && c0 <= c1 && c1 <= a.cols());
  const int m = a.rows(), n = a.cols(), w = c1 - c0;
  Tensor out =
      MakeOpResult(m, w, {a}, [m, n, c0, w](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        pa.EnsureGrad();
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < w; ++j) {
            pa.grad[static_cast<size_t>(i) * n + c0 + j] +=
                node.grad[static_cast<size_t>(i) * w + j];
          }
        }
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < w; ++j) {
      o[static_cast<size_t>(i) * w + j] =
          ad[static_cast<size_t>(i) * n + c0 + j];
    }
  }
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  const int n = a.cols();
  for (int idx : indices) HAP_CHECK(idx >= 0 && idx < a.rows());
  Tensor out = MakeOpResult(
      static_cast<int>(indices.size()), n, {a},
      [indices, n](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        pa.EnsureGrad();
        for (size_t r = 0; r < indices.size(); ++r) {
          const size_t src = r * n;
          const size_t dst = static_cast<size_t>(indices[r]) * n;
          for (int j = 0; j < n; ++j) pa.grad[dst + j] += node.grad[src + j];
        }
      });
  float* o = out.mutable_data();
  for (size_t r = 0; r < indices.size(); ++r) {
    std::copy(a.values().begin() + static_cast<size_t>(indices[r]) * n,
              a.values().begin() + static_cast<size_t>(indices[r] + 1) * n,
              o + r * n);
  }
  return out;
}

Tensor Reshape(const Tensor& a, int rows, int cols) {
  HAP_CHECK_EQ(static_cast<int64_t>(rows) * cols, a.size());
  Tensor out = MakeOpResult(rows, cols, {a}, [](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    for (size_t i = 0; i < node.grad.size(); ++i) pa.grad[i] += node.grad[i];
  });
  std::copy(a.values().begin(), a.values().end(), out.mutable_data());
  return out;
}

namespace {

template <typename Fwd, typename Dfn>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Dfn dfn) {
  // dfn(x, y) returns dy/dx given the input x and output y.
  Tensor out = MakeOpResult(
      a.rows(), a.cols(), {a}, [dfn](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        pa.EnsureGrad();
        ParallelFor(0, static_cast<int64_t>(node.grad.size()),
                    kParallelGrainWork, [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        pa.grad[i] +=
                            node.grad[i] * dfn(pa.data[i], node.data[i]);
                      }
                    });
      });
  float* o = out.mutable_data();
  const float* ad = a.data();
  ParallelFor(0, a.size(), kParallelGrainWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) o[i] = fwd(ad[i]);
  });
  return out;
}

}  // namespace

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return ReluScalar(x); },
      [](float x, float) { return ReluMask(x); });
}

Tensor LeakyRelu(const Tensor& a, float alpha) {
  return UnaryOp(
      a, [alpha](float x) { return x >= 0.0f ? x : alpha * x; },
      [alpha](float x, float) { return x >= 0.0f ? 1.0f : alpha; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        // Branch for numerical stability at large |x|.
        return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                         : std::exp(x) / (1.0f + std::exp(x));
      },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        HAP_CHECK_GT(x, 0.0f) << "Log of non-positive value";
        return std::log(x);
      },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        HAP_CHECK_GE(x, 0.0f);
        return std::sqrt(x);
      },
      [](float, float y) { return y > 0.0f ? 0.5f / y : 0.0f; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; }, [](float x, float) { return 2.0f * x; });
}

Tensor ClampMin(const Tensor& a, float floor) {
  return UnaryOp(
      a, [floor](float x) { return x > floor ? x : floor; },
      [floor](float x, float) { return x > floor ? 1.0f : 0.0f; });
}

Tensor ClampMax(const Tensor& a, float ceil) {
  return UnaryOp(
      a, [ceil](float x) { return x < ceil ? x : ceil; },
      [ceil](float x, float) { return x < ceil ? 1.0f : 0.0f; });
}

Tensor SoftmaxRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeOpResult(m, n, {a}, [m, n](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    // dA_ij = y_ij * (g_ij - sum_k g_ik y_ik); rows are independent.
    ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const size_t row = static_cast<size_t>(i) * n;
        double dot = 0.0;
        for (int j = 0; j < n; ++j) {
          dot += node.grad[row + j] * node.data[row + j];
        }
        for (int j = 0; j < n; ++j) {
          pa.grad[row + j] += node.data[row + j] *
                              (node.grad[row + j] - static_cast<float>(dot));
        }
      }
    });
  });
  float* o = out.mutable_data();
  const float* ad = a.data();
  ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const size_t row = static_cast<size_t>(i) * n;
      float mx = ad[row];
      for (int j = 1; j < n; ++j) mx = std::max(mx, ad[row + j]);
      double sum = 0.0;
      for (int j = 0; j < n; ++j) {
        o[row + j] = std::exp(ad[row + j] - mx);
        sum += o[row + j];
      }
      const float inv = static_cast<float>(1.0 / sum);
      for (int j = 0; j < n; ++j) o[row + j] *= inv;
    }
  });
  return out;
}

Tensor LogSoftmaxRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeOpResult(m, n, {a}, [m, n](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    // dA_ij = g_ij - exp(y_ij) * sum_k g_ik; rows are independent.
    ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const size_t row = static_cast<size_t>(i) * n;
        double gsum = 0.0;
        for (int j = 0; j < n; ++j) gsum += node.grad[row + j];
        for (int j = 0; j < n; ++j) {
          pa.grad[row + j] += node.grad[row + j] -
                              std::exp(node.data[row + j]) *
                                  static_cast<float>(gsum);
        }
      }
    });
  });
  float* o = out.mutable_data();
  const float* ad = a.data();
  ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const size_t row = static_cast<size_t>(i) * n;
      float mx = ad[row];
      for (int j = 1; j < n; ++j) mx = std::max(mx, ad[row + j]);
      double sum = 0.0;
      for (int j = 0; j < n; ++j) sum += std::exp(ad[row + j] - mx);
      const float lse = mx + static_cast<float>(std::log(sum));
      for (int j = 0; j < n; ++j) o[row + j] = ad[row + j] - lse;
    }
  });
  return out;
}

Tensor ReduceSumAll(const Tensor& a) {
  Tensor out = MakeOpResult(1, 1, {a}, [](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    const float g = node.grad[0];
    ParallelFor(0, static_cast<int64_t>(pa.grad.size()), kParallelGrainWork,
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) pa.grad[i] += g;
                });
  });
  const float* ad = a.data();
  const int64_t size = a.size();
  double sum = 0.0;
  for (int64_t i = 0; i < size; ++i) sum += ad[i];
  out.mutable_data()[0] = static_cast<float>(sum);
  return out;
}

Tensor ReduceMeanAll(const Tensor& a) {
  HAP_CHECK_GT(a.size(), 0);
  return MulScalar(ReduceSumAll(a), 1.0f / static_cast<float>(a.size()));
}

Tensor ReduceSumRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeOpResult(1, n, {a}, [m, n](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        for (int j = 0; j < n; ++j) {
          pa.grad[static_cast<size_t>(i) * n + j] += node.grad[j];
        }
      }
    });
  });
  float* o = out.mutable_data();
  const float* ad = a.data();
  // Column-blocked: each output element is one full-column sum, so every
  // block owns a disjoint slice of the output and keeps i ascending.
  ParallelFor(0, n, RowGrain(m), [&](int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) {
      double sum = 0.0;
      for (int i = 0; i < m; ++i) {
        sum += ad[static_cast<size_t>(i) * n + j];
      }
      o[j] = static_cast<float>(sum);
    }
  });
  return out;
}

Tensor ReduceSumCols(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  Tensor out = MakeOpResult(m, 1, {a}, [m, n](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const float g = node.grad[i];
        for (int j = 0; j < n; ++j) {
          pa.grad[static_cast<size_t>(i) * n + j] += g;
        }
      }
    });
  });
  float* o = out.mutable_data();
  const float* ad = a.data();
  ParallelFor(0, m, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      double sum = 0.0;
      for (int j = 0; j < n; ++j) {
        sum += ad[static_cast<size_t>(i) * n + j];
      }
      o[i] = static_cast<float>(sum);
    }
  });
  return out;
}

Tensor ReduceMeanRows(const Tensor& a) {
  HAP_CHECK_GT(a.rows(), 0);
  return MulScalar(ReduceSumRows(a), 1.0f / static_cast<float>(a.rows()));
}

Tensor ReduceMeanCols(const Tensor& a) {
  HAP_CHECK_GT(a.cols(), 0);
  return MulScalar(ReduceSumCols(a), 1.0f / static_cast<float>(a.cols()));
}

Tensor ReduceMaxRows(const Tensor& a) {
  const int m = a.rows(), n = a.cols();
  HAP_CHECK_GT(m, 0);
  // Capture argmax per column for the backward pass.
  const float* ad = a.data();
  std::vector<int> argmax(n, 0);
  for (int j = 0; j < n; ++j) {
    float best = ad[j];
    for (int i = 1; i < m; ++i) {
      const float v = ad[static_cast<size_t>(i) * n + j];
      if (v > best) {
        best = v;
        argmax[j] = i;
      }
    }
  }
  Tensor out = MakeOpResult(1, n, {a}, [argmax, n](internal::TensorImpl& node) {
    internal::TensorImpl& pa = Parent(node, 0);
    pa.EnsureGrad();
    for (int j = 0; j < n; ++j) {
      pa.grad[static_cast<size_t>(argmax[j]) * n + j] += node.grad[j];
    }
  });
  float* o = out.mutable_data();
  for (int j = 0; j < n; ++j) {
    o[j] = ad[static_cast<size_t>(argmax[j]) * n + j];
  }
  return out;
}

Tensor NllLoss(const Tensor& logprobs, const std::vector<int>& labels) {
  const int b = logprobs.rows(), c = logprobs.cols();
  HAP_CHECK_EQ(static_cast<int>(labels.size()), b);
  for (int label : labels) HAP_CHECK(label >= 0 && label < c);
  Tensor out =
      MakeOpResult(1, 1, {logprobs}, [labels, b, c](internal::TensorImpl& node) {
        internal::TensorImpl& pa = Parent(node, 0);
        pa.EnsureGrad();
        const float g = node.grad[0] / static_cast<float>(b);
        for (int i = 0; i < b; ++i) {
          pa.grad[static_cast<size_t>(i) * c + labels[i]] -= g;
        }
      });
  const float* lp = logprobs.data();
  double sum = 0.0;
  for (int i = 0; i < b; ++i) {
    sum -= lp[static_cast<size_t>(i) * c + labels[i]];
  }
  out.mutable_data()[0] = static_cast<float>(sum / b);
  return out;
}

Tensor SquaredDistance(const Tensor& a, const Tensor& b) {
  HAP_CHECK(a.rows() == 1 && b.rows() == 1);
  Tensor diff = Sub(a, b);
  return ReduceSumAll(Square(diff));
}

Tensor EuclideanDistance(const Tensor& a, const Tensor& b) {
  return Sqrt(AddScalar(SquaredDistance(a, b), 1e-12f));
}

std::vector<int> ArgSortDescending(const std::vector<float>& column_values) {
  std::vector<int> order(column_values.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int lhs, int rhs) {
    return column_values[lhs] > column_values[rhs];
  });
  return order;
}

std::vector<int> TopKRowsByColumn(const Tensor& a, int c, int k) {
  HAP_CHECK(c >= 0 && c < a.cols());
  HAP_CHECK(k >= 1 && k <= a.rows());
  std::vector<float> column(a.rows());
  for (int i = 0; i < a.rows(); ++i) column[i] = a.At(i, c);
  std::vector<int> order = ArgSortDescending(column);
  order.resize(k);
  return order;
}

}  // namespace hap
