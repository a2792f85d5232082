#include "tensor/matmul_kernels.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/lanes_avx2.h"


namespace hap::kernels {

namespace {

// ---------------------------------------------------------------------------
// Thread-local pack scratch: a bump buffer that grows geometrically and
// then stays — steady-state packing performs zero heap allocations
// (mem.scratch.grow_bytes goes flat after warm-up). One pack is live per
// thread at a time: the dispatching thread packs, then blocks in
// ParallelFor while workers read the panels.
// ---------------------------------------------------------------------------

struct PackScratch {
  std::vector<float> buffer;

  float* Get(size_t count) {
    if (buffer.size() < count) {
      const size_t grown = count > 2 * buffer.size() ? count : 2 * buffer.size();
      if (obs::HotCountersEnabled()) {
        static obs::Counter* grow_bytes =
            obs::GetCounter(obs::names::kMemScratchGrowBytes);
        grow_bytes->Add((grown - buffer.size()) * sizeof(float));
      }
      buffer.resize(grown);
    }
    return buffer.data();
  }
};

PackScratch& Scratch() {
  thread_local PackScratch scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// AVX2 micro-kernels. Multiplies and adds are separate intrinsics on
// purpose: target("avx2") does not enable FMA, so the compiler cannot
// contract them and per-term rounding matches the scalar reference
// exactly. Operand order also matches the reference (`g * b`, `a * b`,
// `acc + prod`) so NaN payload propagation is identical too.
//
// Each body covers one run of output columns in V vectors (lanes_avx2.h):
// a full 16-wide panel is V = 2 unmasked, a column or depth tail is 1-4
// vectors whose last one may be masked. Rows go in kRowTile tiles, then
// one tile of the 1-3 leftover rows, with the tile's R×V outputs held in
// registers across the whole reduction.
// ---------------------------------------------------------------------------

#if HAP_KERNELS_X86

// Forward over the output columns [j0, j0 + width). `bcols` is B's column
// j0 with row stride `bstride`: a packed panel (stride 16) or, for the
// column tail, the raw operand (stride n).
template <int V, bool kMasked>
struct ForwardCols {
  template <int R>
  __attribute__((target("avx2"), always_inline)) static void Tile(
      const float* a, const float* bcols, int64_t bstride, float* out,
      int64_t k, int64_t n, __m256i mask, int64_t i) {
    __m256 c[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        c[r][v] = LoadLanes<V, kMasked>(out + (i + r) * n, v, mask);
      }
    }
    for (int64_t p = 0; p < k; ++p) {
      __m256 b[V];
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        b[v] = LoadLanes<V, kMasked>(bcols + p * bstride, v, mask);
      }
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const float av = a[(i + r) * k + p];
        // Most a[i,p] are nonzero: keep the add on the fall-through path.
        if (__builtin_expect(av != 0.0f, 1)) {
          const __m256 s = _mm256_set1_ps(av);
#pragma GCC unroll 4
          for (int v = 0; v < V; ++v) {
            c[r][v] = _mm256_add_ps(c[r][v], _mm256_mul_ps(s, b[v]));
          }
        }
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        StoreLanes<V, kMasked>(out + (i + r) * n, v, mask, c[r][v]);
      }
    }
  }

  __attribute__((target("avx2"))) static void Run(
      const float* a, const float* bcols, int64_t bstride, float* out,
      int64_t k, int64_t n, int64_t j0, int64_t width, int64_t i0,
      int64_t i1) {
    const __m256i mask = RunMask<kMasked>(width);
    float* o = out + j0;
    int64_t i = i0;
    for (; i + kRowTile <= i1; i += kRowTile) {
      Tile<kRowTile>(a, bcols, bstride, o, k, n, mask, i);
    }
    switch (i1 - i) {
      case 3: return Tile<3>(a, bcols, bstride, o, k, n, mask, i);
      case 2: return Tile<2>(a, bcols, bstride, o, k, n, mask, i);
      case 1: return Tile<1>(a, bcols, bstride, o, k, n, mask, i);
    }
  }
};

__attribute__((target("avx2"))) void ForwardRowsAvx2(
    const float* a, const float* packed_b, const float* b, float* out,
    int64_t k, int64_t n, int64_t i0, int64_t i1) {
  const int64_t panels = n / kColPanel;
  for (int64_t jp = 0; jp < panels; ++jp) {
    ForwardCols<2, false>::Run(a, packed_b + jp * k * kColPanel, kColPanel,
                               out, k, n, jp * kColPanel, kColPanel, i0, i1);
  }
  const int64_t n16 = panels * kColPanel;
  if (n16 == n) return;
  RunLanes<ForwardCols, 2>(n - n16, a, b + n16, n, out, k, n, n16, n - n16,
                           i0, i1);
}

// dA over the depth columns [p0, p0 + width) of ga, from a packed Bᵀ
// chunk of row stride V·8 (zero padded past `width`, so its loads are
// never masked; only ga's last vector is).
template <int V, bool kMasked>
struct GradAChunk {
  __attribute__((target("avx2"))) static void Run(
      const float* g, const float* chunk, float* ga, int64_t k, int64_t n,
      int64_t p0, int64_t width, int64_t i0, int64_t i1) {
    const __m256i mask = RunMask<kMasked>(width);
    for (int64_t i = i0; i < i1; ++i) {
      const float* grow = g + i * n;
      float* garow = ga + i * k + p0;
      __m256 acc[V];
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[v] = LoadLanes<V, kMasked>(garow, v, mask);
      }
      for (int64_t j = 0; j < n; ++j) {
        const float gv = grow[j];
        if (gv == 0.0f) continue;
        const __m256 s = _mm256_set1_ps(gv);
        const float* bt = chunk + j * V * kLanes;
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
          acc[v] = _mm256_add_ps(
              acc[v], _mm256_mul_ps(s, _mm256_loadu_ps(bt + v * kLanes)));
        }
      }
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        StoreLanes<V, kMasked>(garow, v, mask, acc[v]);
      }
    }
  }
};

__attribute__((target("avx2"))) void GradARowsAvx2(
    const float* g, const float* packed_bt, float* ga, int64_t k, int64_t n,
    int64_t i0, int64_t i1) {
  const int64_t chunks = k / kGradAChunk;
  for (int64_t c = 0; c < chunks; ++c) {
    GradAChunk<4, false>::Run(g, packed_bt + c * n * kGradAChunk, ga, k, n,
                              c * kGradAChunk, kGradAChunk, i0, i1);
  }
  const int64_t k32 = chunks * kGradAChunk;
  if (k32 == k) return;
  RunLanes<GradAChunk, 4>(k - k32, g, packed_bt + chunks * n * kGradAChunk,
                          ga, k, n, k32, k - k32, i0, i1);
}

__attribute__((target("avx2"))) void AddRowGramAvx2(const float* row,
                                                    int64_t k, float* gram) {
  const int64_t k8 = k - k % 8;
  for (int64_t p = 0; p < k; ++p) {
    const float v = row[p];
    if (v == 0.0f) continue;
    float* gp = gram + p * k;
    const __m256 vv = _mm256_set1_ps(v);
    int64_t q = 0;
    for (; q < k8; q += 8) {
      const __m256 prod = _mm256_mul_ps(vv, _mm256_loadu_ps(row + q));
      _mm256_storeu_ps(gp + q, _mm256_add_ps(_mm256_loadu_ps(gp + q), prod));
    }
    for (; q < k; ++q) gp[q] += v * row[q];
  }
}

// dB over the output columns [j0, j0 + width). This is the one kernel
// where the g == 0 skip sits on the vector lanes, so the branch becomes a
// compare-and-mask: lanes with g == 0 contribute a +0.0f add, which is
// bit-identical to skipping because the accumulator (a gradient cell) can
// never be -0.0 — see the header contract.
template <int V, bool kMasked>
struct GradBCols {
  template <int R>
  __attribute__((target("avx2"), always_inline)) static void Tile(
      const float* a, const float* g, float* gb, int64_t m, int64_t k,
      int64_t n, __m256i mask, int64_t p) {
    const __m256 zero = _mm256_setzero_ps();
    __m256 c[R][V];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        c[r][v] = LoadLanes<V, kMasked>(gb + (p + r) * n, v, mask);
      }
    }
    for (int64_t i = 0; i < m; ++i) {
      __m256 gv[V], live[V];
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        gv[v] = LoadLanes<V, kMasked>(g + i * n, v, mask);
        live[v] = _mm256_cmp_ps(gv[v], zero, _CMP_NEQ_UQ);
      }
      const float* arow = a + i * k + p;
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256 s = _mm256_set1_ps(arow[r]);
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
          c[r][v] = _mm256_add_ps(
              c[r][v], _mm256_and_ps(_mm256_mul_ps(gv[v], s), live[v]));
        }
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        StoreLanes<V, kMasked>(gb + (p + r) * n, v, mask, c[r][v]);
      }
    }
  }

  __attribute__((target("avx2"))) static void Run(
      const float* a, const float* g, float* gb, int64_t m, int64_t k,
      int64_t n, int64_t j0, int64_t width, int64_t p0, int64_t p1) {
    const __m256i mask = RunMask<kMasked>(width);
    const float* gc = g + j0;
    float* gbc = gb + j0;
    int64_t p = p0;
    for (; p + kRowTile <= p1; p += kRowTile) {
      Tile<kRowTile>(a, gc, gbc, m, k, n, mask, p);
    }
    switch (p1 - p) {
      case 3: return Tile<3>(a, gc, gbc, m, k, n, mask, p);
      case 2: return Tile<2>(a, gc, gbc, m, k, n, mask, p);
      case 1: return Tile<1>(a, gc, gbc, m, k, n, mask, p);
    }
  }
};

__attribute__((target("avx2"))) void GradBRowsAvx2(
    const float* a, const float* g, float* gb, int64_t m, int64_t k, int64_t n,
    int64_t p0, int64_t p1) {
  const int64_t n16 = n - n % kColPanel;
  for (int64_t j0 = 0; j0 < n16; j0 += kColPanel) {
    GradBCols<2, false>::Run(a, g, gb, m, k, n, j0, kColPanel, p0, p1);
  }
  if (n16 == n) return;
  RunLanes<GradBCols, 2>(n - n16, a, g, gb, m, k, n, n16, n - n16, p0, p1);
}

// ---------------------------------------------------------------------------
// int8 GEMM kernel. Accumulation is exact: panel values are int8-range
// i16 lanes, so each _mm256_madd_epi16 sums two i16*i16 products
// (<= 127*127 each) into an i32 lane with no intermediate saturation --
// unlike the maddubs u8*i8 form which can clip at 255*127*2 > i16::max.
// Each i32 lane absorbs k/2 pair-sums, so overflow needs
// k >~ 2^31 / (2*127^2) ~ 133k -- far past any model here.
//
// Formulation: broadcast one A depth-pair (vpbroadcastd), madd it against
// the 8-column interleaved B panel, accumulate straight into C tiles.
// No horizontal sums anywhere, so the epilogue cost is O(m*n) flat in k
// and the kernel stays profitable at the model's k = 64 GEMMs, not just
// the deep propagation shapes.
// ---------------------------------------------------------------------------

// scale * acc for one 8-column C vector, bit for bit the scalar
// epilogue: cvtepi32->float rounds RNE like static_cast<float>.
__attribute__((target("avx2"))) inline __m256 DequantVecAvx2(
    __m256i acc, __m256 vscale) {
  return _mm256_mul_ps(_mm256_cvtepi32_ps(acc), vscale);
}

__attribute__((target("avx2"))) inline __m256i BroadcastPairAvx2(
    const int16_t* a_pair) {
  int32_t pair;
  std::memcpy(&pair, a_pair, sizeof(pair));
  return _mm256_set1_epi32(pair);
}

__attribute__((target("avx2"))) void Int8GemmRowsAvx2(
    const int16_t* aq, const int16_t* bq, float* out, int64_t k_pad,
    int64_t n, float scale, int64_t i0, int64_t i1) {
  const int64_t pairs = k_pad / 2;
  const int64_t group_stride = 8 * k_pad;  // i16 elements per column group
  const int64_t full_groups = n / 8;
  const __m256 vscale = _mm256_set1_ps(scale);

  int64_t i = i0;
  for (; i + 2 <= i1; i += 2) {  // two C rows per pass
    const int16_t* a0 = aq + (i + 0) * k_pad;
    const int16_t* a1 = aq + (i + 1) * k_pad;
    float* o0 = out + (i + 0) * n;
    float* o1 = out + (i + 1) * n;
    int64_t g = 0;
    for (; g + 2 <= full_groups; g += 2) {  // 16 columns per tile
      const int16_t* bg0 = bq + (g + 0) * group_stride;
      const int16_t* bg1 = bq + (g + 1) * group_stride;
      __m256i c00 = _mm256_setzero_si256();
      __m256i c01 = _mm256_setzero_si256();
      __m256i c10 = _mm256_setzero_si256();
      __m256i c11 = _mm256_setzero_si256();
      for (int64_t p = 0; p < pairs; ++p) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bg0 + p * 16));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bg1 + p * 16));
        const __m256i w0 = BroadcastPairAvx2(a0 + 2 * p);
        const __m256i w1 = BroadcastPairAvx2(a1 + 2 * p);
        c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(w0, b0));
        c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(w0, b1));
        c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(w1, b0));
        c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(w1, b1));
      }
      const int64_t j = g * 8;
      _mm256_storeu_ps(o0 + j, DequantVecAvx2(c00, vscale));
      _mm256_storeu_ps(o0 + j + 8, DequantVecAvx2(c01, vscale));
      _mm256_storeu_ps(o1 + j, DequantVecAvx2(c10, vscale));
      _mm256_storeu_ps(o1 + j + 8, DequantVecAvx2(c11, vscale));
    }
    for (; g < full_groups; ++g) {  // one 8-column group
      const int16_t* bg = bq + g * group_stride;
      __m256i c0 = _mm256_setzero_si256();
      __m256i c1 = _mm256_setzero_si256();
      for (int64_t p = 0; p < pairs; ++p) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(bg + p * 16));
        c0 = _mm256_add_epi32(
            c0, _mm256_madd_epi16(BroadcastPairAvx2(a0 + 2 * p), b0));
        c1 = _mm256_add_epi32(
            c1, _mm256_madd_epi16(BroadcastPairAvx2(a1 + 2 * p), b0));
      }
      const int64_t j = g * 8;
      _mm256_storeu_ps(o0 + j, DequantVecAvx2(c0, vscale));
      _mm256_storeu_ps(o1 + j, DequantVecAvx2(c1, vscale));
    }
  }
  for (; i < i1; ++i) {  // row tail
    const int16_t* a0 = aq + i * k_pad;
    float* o0 = out + i * n;
    for (int64_t g = 0; g < full_groups; ++g) {
      const int16_t* bg = bq + g * group_stride;
      __m256i c0 = _mm256_setzero_si256();
      for (int64_t p = 0; p < pairs; ++p) {
        c0 = _mm256_add_epi32(
            c0, _mm256_madd_epi16(
                    BroadcastPairAvx2(a0 + 2 * p),
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(bg + p * 16))));
      }
      _mm256_storeu_ps(o0 + g * 8, DequantVecAvx2(c0, vscale));
    }
  }
  if (n % 8 != 0) {  // partial last group: scalar, same pair order
    const int16_t* bg = bq + full_groups * group_stride;
    for (int64_t r = i0; r < i1; ++r) {
      const int16_t* arow = aq + r * k_pad;
      float* orow = out + r * n;
      for (int64_t j = full_groups * 8; j < n; ++j) {
        const int16_t* bcol = bg + (j % 8) * 2;
        int32_t acc = 0;
        for (int64_t p = 0; p < pairs; ++p) {
          acc += static_cast<int32_t>(arow[2 * p]) *
                     static_cast<int32_t>(bcol[p * 16]) +
                 static_cast<int32_t>(arow[2 * p + 1]) *
                     static_cast<int32_t>(bcol[p * 16 + 1]);
        }
        orow[j] = scale * static_cast<float>(acc);
      }
    }
  }
}

// max |v| with NaN ignored (max_ps returns its SECOND operand on an
// unordered compare, so feeding |v| first keeps NaN out of the running
// maximum — the same "NaN never beats the max" behaviour as the scalar
// loop's `fabs(v) > max` test).
__attribute__((target("avx2"))) float AbsMaxAvx2(const float* data,
                                                 int64_t count) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= count; i += 16) {
    acc0 = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(data + i), abs_mask), acc0);
    acc1 = _mm256_max_ps(
        _mm256_and_ps(_mm256_loadu_ps(data + i + 8), abs_mask), acc1);
  }
  const __m256 acc = _mm256_max_ps(acc0, acc1);
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(2, 3, 0, 1)));
  float max = _mm_cvtss_f32(m);
  for (; i < count; ++i) {
    const float v = std::fabs(data[i]);
    if (v > max) max = v;
  }
  return max;
}

// Vector quantize, element-exact with the scalar path: same multiply,
// same NaN test (on the PRODUCT, like the scalar code), the same
// [-127, 127] clamp, and vcvtps2dq's round-to-nearest-even matches
// lrintf under the default rounding mode.
__attribute__((target("avx2"))) void QuantizeSymmetricAvx2(
    const float* src, int64_t count, float inv_scale, int16_t* dst) {
  const __m256 vscale = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  int64_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256 v0 = _mm256_mul_ps(_mm256_loadu_ps(src + i), vscale);
    const __m256 v1 = _mm256_mul_ps(_mm256_loadu_ps(src + i + 8), vscale);
    const __m256 ord0 = _mm256_cmp_ps(v0, v0, _CMP_ORD_Q);
    const __m256 ord1 = _mm256_cmp_ps(v1, v1, _CMP_ORD_Q);
    // min/max return the second operand on NaN, so a NaN product clamps
    // to a finite value here; the ord mask then zeroes it.
    const __m256 c0 = _mm256_max_ps(_mm256_min_ps(v0, hi), lo);
    const __m256 c1 = _mm256_max_ps(_mm256_min_ps(v1, hi), lo);
    const __m256i q0 = _mm256_cvtps_epi32(_mm256_and_ps(c0, ord0));
    const __m256i q1 = _mm256_cvtps_epi32(_mm256_and_ps(c1, ord1));
    // packs interleaves 128-bit lanes; the permute restores source order.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(q0, q1), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
  }
  for (; i < count; ++i) {
    const float v = src[i] * inv_scale;
    if (!(v == v)) {
      dst[i] = 0;
    } else if (v >= 127.0f) {
      dst[i] = 127;
    } else if (v <= -127.0f) {
      dst[i] = -127;
    } else {
      dst[i] = static_cast<int16_t>(std::lrintf(v));
    }
  }
}

#endif  // HAP_KERNELS_X86

void Int8GemmRowsScalar(const int16_t* aq, const int16_t* bq, float* out,
                        int64_t k_pad, int64_t n, float scale, int64_t i0,
                        int64_t i1) {
  const int64_t pairs = k_pad / 2;
  const int64_t group_stride = 8 * k_pad;
  for (int64_t i = i0; i < i1; ++i) {
    const int16_t* arow = aq + i * k_pad;
    float* orow = out + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int16_t* bcol = bq + (j / 8) * group_stride + (j % 8) * 2;
      int32_t acc = 0;
      for (int64_t p = 0; p < pairs; ++p) {
        acc += static_cast<int32_t>(arow[2 * p]) *
                   static_cast<int32_t>(bcol[p * 16]) +
               static_cast<int32_t>(arow[2 * p + 1]) *
                   static_cast<int32_t>(bcol[p * 16 + 1]);
      }
      orow[j] = scale * static_cast<float>(acc);
    }
  }
}

// Thread-local reduced-precision scratch, same grow-and-stay policy as
// PackScratch. Two buffers per element type so one GEMM can hold both
// packed operands simultaneously.
struct QuantScratch {
  std::vector<int16_t> a8, b8, bt;

  template <typename T>
  static T* Get(std::vector<T>* buffer, size_t count) {
    if (buffer->size() < count) {
      const size_t grown =
          count > 2 * buffer->size() ? count : 2 * buffer->size();
      if (obs::HotCountersEnabled()) {
        static obs::Counter* grow_bytes =
            obs::GetCounter(obs::names::kMemScratchGrowBytes);
        grow_bytes->Add((grown - buffer->size()) * sizeof(T));
      }
      buffer->resize(grown);
    }
    return buffer->data();
  }
};

QuantScratch& QScratch() {
  thread_local QuantScratch scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// Scalar fallbacks for hosts without AVX2: the same register tiles with
// plain float lanes the compiler may auto-vectorize (mul and add stay
// separate expressions — -O2 never contracts them without FMA ISA), and
// the reference loops on the unpacked B for column and depth tails.
// ---------------------------------------------------------------------------

void ForwardRowsScalar(const float* a, const float* packed_b, const float* b,
                       float* out, int64_t k, int64_t n, int64_t i0,
                       int64_t i1) {
  const int64_t panels = n / kColPanel;
  for (int64_t jp = 0; jp < panels; ++jp) {
    const float* panel = packed_b + jp * k * kColPanel;
    const int64_t j0 = jp * kColPanel;
    for (int64_t i = i0; i < i1; ++i) {
      float acc[kColPanel];
      float* orow = out + i * n + j0;
      for (int64_t q = 0; q < kColPanel; ++q) acc[q] = orow[q];
      const float* arow = a + i * k;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* brow = panel + p * kColPanel;
        for (int64_t q = 0; q < kColPanel; ++q) acc[q] += av * brow[q];
      }
      for (int64_t q = 0; q < kColPanel; ++q) orow[q] = acc[q];
    }
  }
  const int64_t n16 = panels * kColPanel;
  if (n16 == n) return;
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      float* orow = out + i * n;
      for (int64_t j = n16; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void GradARowsScalar(const float* g, const float* packed_bt, const float* b,
                     float* ga, int64_t k, int64_t n, int64_t i0, int64_t i1) {
  const int64_t chunks = k / kGradAChunk;
  for (int64_t i = i0; i < i1; ++i) {
    const float* grow = g + i * n;
    for (int64_t c = 0; c < chunks; ++c) {
      const float* chunk = packed_bt + c * n * kGradAChunk;
      float* garow = ga + i * k + c * kGradAChunk;
      float acc[kGradAChunk];
      for (int64_t q = 0; q < kGradAChunk; ++q) acc[q] = garow[q];
      for (int64_t j = 0; j < n; ++j) {
        const float gv = grow[j];
        if (gv == 0.0f) continue;
        const float* bt = chunk + j * kGradAChunk;
        for (int64_t q = 0; q < kGradAChunk; ++q) acc[q] += gv * bt[q];
      }
      for (int64_t q = 0; q < kGradAChunk; ++q) garow[q] = acc[q];
    }
  }
  const int64_t k32 = chunks * kGradAChunk;
  if (k32 == k) return;
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float gv = g[i * n + j];
      if (gv == 0.0f) continue;
      for (int64_t p = k32; p < k; ++p) {
        ga[i * k + p] += gv * b[p * n + j];
      }
    }
  }
}

void GradBRowsScalar(const float* a, const float* g, float* gb, int64_t m,
                         int64_t k, int64_t n, int64_t p0, int64_t p1) {
  for (int64_t p = p0; p < p1; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = gb[p * n + j];
      for (int64_t i = 0; i < m; ++i) {
        const float gv = g[i * n + j];
        if (gv == 0.0f) continue;
        acc += gv * a[i * k + p];
      }
      gb[p * n + j] = acc;
    }
  }
}

}  // namespace

bool CpuHasAvx2() {
#if HAP_KERNELS_X86
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

const float* PackBPanels(const float* b, int64_t k, int64_t n) {
  const int64_t panels = n / kColPanel;
  float* dst = Scratch().Get(static_cast<size_t>(panels) * k * kColPanel);
  for (int64_t jp = 0; jp < panels; ++jp) {
    float* panel = dst + jp * k * kColPanel;
    const float* src = b + jp * kColPanel;
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(panel + p * kColPanel, src + p * n,
                  kColPanel * sizeof(float));
    }
  }
  return dst;
}

const float* PackBTransposed(const float* b, int64_t k, int64_t n) {
  const int64_t chunks = k / kGradAChunk;
  const int64_t tail = k - chunks * kGradAChunk;
  const int64_t tail_width = (tail + kLanes - 1) / kLanes * kLanes;
  float* dst = Scratch().Get(
      static_cast<size_t>(chunks * kGradAChunk + tail_width) * n);
  for (int64_t c = 0; c < chunks; ++c) {
    float* chunk = dst + c * n * kGradAChunk;
    const float* src = b + c * kGradAChunk * n;
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t q = 0; q < kGradAChunk; ++q) {
        chunk[j * kGradAChunk + q] = src[q * n + j];
      }
    }
  }
  if (tail == 0) return dst;
  // The tail chunk: [j*w + q] for w = tail_width, zero past the tail.
  float* chunk = dst + chunks * n * kGradAChunk;
  const float* src = b + chunks * kGradAChunk * n;
  for (int64_t j = 0; j < n; ++j) {
    float* row = chunk + j * tail_width;
    for (int64_t q = 0; q < tail; ++q) row[q] = src[q * n + j];
    for (int64_t q = tail; q < tail_width; ++q) row[q] = 0.0f;
  }
  return dst;
}

// --- Naive reference kernels: the original ops.cc loops, verbatim ---
// MatMul never calls them; tests and bench_matmul_kernels check the
// blocked kernels against them.

void NaiveForwardRows(const float* a, const float* b, float* out, int64_t k,
                      int64_t n, int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void NaiveGradARows(const float* g, const float* b, float* ga, int64_t k,
                    int64_t n, int64_t i0, int64_t i1) {
  for (int64_t i = i0; i < i1; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float gv = g[i * n + j];
      if (gv == 0.0f) continue;
      for (int64_t p = 0; p < k; ++p) {
        ga[i * k + p] += gv * b[p * n + j];
      }
    }
  }
}

void NaiveGradBRows(const float* a, const float* g, float* gb, int64_t m,
                    int64_t k, int64_t n, int64_t p0, int64_t p1) {
  (void)k;
  for (int64_t p = p0; p < p1; ++p) {
    for (int64_t i = 0; i < m; ++i) {
      const float av = a[i * k + p];
      for (int64_t j = 0; j < n; ++j) {
        const float gv = g[i * n + j];
        if (gv == 0.0f) continue;
        gb[p * n + j] += gv * av;
      }
    }
  }
}

// --- Blocked kernels ---

void BlockedForwardRows(const float* a, const float* packed_b, const float* b,
                        float* out, int64_t k, int64_t n, int64_t i0,
                        int64_t i1) {
#if HAP_KERNELS_X86
  if (CpuHasAvx2()) {
    ForwardRowsAvx2(a, packed_b, b, out, k, n, i0, i1);
    return;
  }
#endif
  ForwardRowsScalar(a, packed_b, b, out, k, n, i0, i1);
}

void AddRowGram(const float* row, int64_t k, float* gram) {
#if HAP_KERNELS_X86
  if (CpuHasAvx2()) {
    AddRowGramAvx2(row, k, gram);
    return;
  }
#endif
  for (int64_t p = 0; p < k; ++p) {
    const float v = row[p];
    if (v == 0.0f) continue;
    float* gp = gram + p * k;
    for (int64_t q = 0; q < k; ++q) gp[q] += v * row[q];
  }
}

void BlockedGradARows(const float* g, const float* packed_bt, const float* b,
                      float* ga, int64_t k, int64_t n, int64_t i0,
                      int64_t i1) {
#if HAP_KERNELS_X86
  if (CpuHasAvx2()) {
    GradARowsAvx2(g, packed_bt, ga, k, n, i0, i1);
    return;
  }
#endif
  GradARowsScalar(g, packed_bt, b, ga, k, n, i0, i1);
}

void BlockedGradBRows(const float* a, const float* g, float* gb, int64_t m,
                      int64_t k, int64_t n, int64_t p0, int64_t p1) {
#if HAP_KERNELS_X86
  if (CpuHasAvx2()) {
    GradBRowsAvx2(a, g, gb, m, k, n, p0, p1);
    return;
  }
#endif
  GradBRowsScalar(a, g, gb, m, k, n, p0, p1);
}

// --- Reduced-precision forward kernels (eval only; see header) ---

float AbsMax(const float* data, int64_t count) {
#if HAP_KERNELS_X86
  if (CpuHasAvx2()) return AbsMaxAvx2(data, count);
#endif
  float max = 0.0f;
  for (int64_t i = 0; i < count; ++i) {
    const float v = std::fabs(data[i]);
    if (v > max) max = v;
  }
  return max;
}

void QuantizeSymmetric(const float* src, int64_t count, float inv_scale,
                       int16_t* dst) {
#if HAP_KERNELS_X86
  if (CpuHasAvx2()) {
    QuantizeSymmetricAvx2(src, count, inv_scale, dst);
    return;
  }
#endif
  for (int64_t i = 0; i < count; ++i) {
    const float v = src[i] * inv_scale;
    if (!(v == v)) {
      dst[i] = 0;  // NaN
    } else if (v >= 127.0f) {
      dst[i] = 127;
    } else if (v <= -127.0f) {
      dst[i] = -127;
    } else {
      dst[i] = static_cast<int16_t>(std::lrintf(v));
    }
  }
}

void PackAInt8(const float* a, int64_t m, int64_t k, float inv_scale,
               int16_t* dst) {
  const int64_t k_pad = RoundUpK(k);
  if (k_pad == k) {  // rows abut: one pass over the whole matrix
    QuantizeSymmetric(a, m * k, inv_scale, dst);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    int16_t* row = dst + i * k_pad;
    QuantizeSymmetric(a + i * k, k, inv_scale, row);
    std::memset(row + k, 0, static_cast<size_t>(k_pad - k) * sizeof(int16_t));
  }
}

void PackBInt8Panels(const float* b, int64_t k, int64_t n, float inv_scale,
                     int16_t* dst) {
  const int64_t k_pad = RoundUpK(k);
  const int64_t group_stride = 8 * k_pad;
  const int64_t groups = (n + 7) / 8;
  // Quantize row-major (vectorized, unit stride) into scratch, then
  // scatter the already-integer values into the interleaved depth-pair
  // panels — moving i16s instead of running the float pipeline strided.
  int16_t* tmp = QuantScratch::Get(&QScratch().bt,
                                   static_cast<size_t>(k) * n);
  QuantizeSymmetric(b, k * n, inv_scale, tmp);
  std::memset(dst, 0, static_cast<size_t>(groups) * group_stride *
                          sizeof(int16_t));
  for (int64_t p = 0; p < k; ++p) {
    const int16_t* src_row = tmp + p * n;
    // Depth p lands in pair p/2 at interleave slot p%2.
    int16_t* base = dst + (p / 2) * 16 + (p % 2);
    for (int64_t j = 0; j < n; ++j) {
      base[(j / 8) * group_stride + (j % 8) * 2] = src_row[j];
    }
  }
}

void Int8GemmRows(const int16_t* aq, const int16_t* bq, float* out,
                  int64_t k_pad, int64_t n, float scale, int64_t i0,
                  int64_t i1) {
#if HAP_KERNELS_X86
  if (CpuHasAvx2()) {
    Int8GemmRowsAvx2(aq, bq, out, k_pad, n, scale, i0, i1);
    return;
  }
#endif
  Int8GemmRowsScalar(aq, bq, out, k_pad, n, scale, i0, i1);
}

bool WeightShapeAdmitsInt8(int64_t k, int64_t n) {
  return n >= 8 && k >= 16;
}

bool ShapeWantsInt8(int64_t m, int64_t k, int64_t n) {
  // Quantize+pack costs O(m·k + k·n) and the fp32 blocked kernels are
  // already strong at small shapes; int8 needs enough depth per dot and
  // enough total work to win (BENCH_quantized_gemm.json sweeps this).
  constexpr int64_t kMinWork = 32 * 1024;  // ~2·m·k·n floor for int8
  return m >= 8 && WeightShapeAdmitsInt8(k, n) && 2 * m * k * n >= kMinWork;
}

int16_t* Int8ScratchA(size_t count) {
  return QuantScratch::Get(&QScratch().a8, count);
}
int16_t* Int8ScratchB(size_t count) {
  return QuantScratch::Get(&QScratch().b8, count);
}

}  // namespace hap::kernels
