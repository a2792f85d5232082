// Dense GEMM micro-kernel family for MatMul's forward and backward
// passes, plus the dispatch layer that picks between them.
//
// Two implementations per pass:
//  * Naive*Rows — the original triple loops from ops.cc, kept verbatim as
//    the bit-exactness reference and as the small-shape fast path (the
//    blocked kernels pay an O(k·n) packing cost that only amortises over
//    enough output rows).
//  * Blocked*Rows — cache-blocked, register-tiled kernels: B is packed
//    into contiguous column panels, the i-k-j loop order keeps a 4x16
//    output tile in registers across the whole k extent, and the 16-wide
//    j-inner loop is unrolled (AVX2 mul+add when the CPU has it, an
//    auto-vectorizable scalar tile otherwise).
//
// Bit-determinism contract (docs/PERFORMANCE.md): every kernel produces
// results bit-identical to its naive reference because, per output
// element, it adds exactly the same terms in exactly the same order —
//  * forward (i,j): p ascending, rows with a[i,p] == 0 skipped;
//  * dA (i,p): j ascending, columns with g[i,j] == 0 skipped;
//  * dB (p,j): i ascending, terms with g[i,j] == 0 skipped;
// with matching operand order in every multiply/add and no FMA
// contraction (fused rounding would differ from the reference). The dB
// kernel replaces the per-lane g == 0 branch with a compare-and-mask add
// of +0.0f, which is bit-identical here because a gradient accumulator
// can never hold -0.0 (it starts at +0.0 and IEEE round-to-nearest
// addition of opposite values yields +0.0). Callers split work by output
// rows, so any ParallelFor partition yields identical bits.
//
// Scope: the contract covers every non-NaN result bit (including signed
// zeros and infinities). NaN payloads/signs are unspecified — the
// compiler may commute the reference kernel's scalar multiplies, so
// which input NaN propagates is not reproducible even naive-vs-naive
// across builds; kernels only guarantee NaNs appear in the same
// elements.
//
// Thread-safety: Pack* routines write into a thread-local scratch arena;
// the returned pointer stays valid until the same thread packs again.
// Worker threads may freely *read* a pointer packed by the dispatching
// thread (the dispatcher blocks inside ParallelFor while workers run).
#ifndef HAP_TENSOR_MATMUL_KERNELS_H_
#define HAP_TENSOR_MATMUL_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace hap::kernels {

// Register-tile geometry of the blocked kernels (see docs/PERFORMANCE.md).
inline constexpr int64_t kRowTile = 4;    // MR: output rows per tile
inline constexpr int64_t kColPanel = 16;  // NR: packed B panel width
inline constexpr int64_t kGradAChunk = 32;  // packed-Bᵀ chunk width for dA

enum class MatMulKernel {
  kAuto,     // shape-based choice (default)
  kNaive,    // force the reference kernels
  kBlocked,  // force the blocked kernels (any shape; tails handled)
};

// Process-wide kernel selection. Defaults to kAuto, overridable by the
// HAP_MATMUL_KERNEL environment variable ("naive" / "blocked" / "auto")
// or programmatically (tests, benchmarks).
MatMulKernel GetMatMulKernel();
void SetMatMulKernel(MatMulKernel kernel);

// True when the blocked kernels use AVX2 intrinsics on this machine
// (otherwise they fall back to the scalar register tile).
bool CpuHasAvx2();

// Shape-based dispatch decisions under the current kernel selection.
// Deterministic functions of shape only, so every rank/thread/process
// makes the same choice.
bool UseBlockedForward(int64_t m, int64_t k, int64_t n);
bool UseBlockedGradA(int64_t m, int64_t k, int64_t n);
bool UseBlockedGradB(int64_t m, int64_t k, int64_t n);

// --- Packing (thread-local scratch; see header comment) ---

// Packs B(k,n) into kColPanel-wide column panels: panel jp holds columns
// [jp*16, jp*16+16) laid out [p*16 + q]. Only floor(n/16) full panels are
// packed; tail columns are read from `b` directly by the kernels.
const float* PackBPanels(const float* b, int64_t k, int64_t n);

// Packs Bᵀ into kGradAChunk-wide row chunks for the dA kernel: chunk c
// holds B rows [c*32, c*32+32) laid out [j*32 + q] (contiguous over q for
// fixed j). Only floor(k/32) full chunks are packed.
const float* PackBTransposed(const float* b, int64_t k, int64_t n);

// --- Forward: out(m,n) += A(m,k)·B(k,n), output rows [i0, i1) ---
// `out` rows must be zero-initialised (MakeOpResult guarantees this).
void NaiveForwardRows(const float* a, const float* b, float* out, int64_t k,
                      int64_t n, int64_t i0, int64_t i1);
void BlockedForwardRows(const float* a, const float* packed_b, const float* b,
                        float* out, int64_t k, int64_t n, int64_t i0,
                        int64_t i1);

// --- dA(m,k) += G(m,n)·Bᵀ, output rows [i0, i1) ---
void NaiveGradARows(const float* g, const float* b, float* ga, int64_t k,
                    int64_t n, int64_t i0, int64_t i1);
void BlockedGradARows(const float* g, const float* packed_bt, const float* b,
                      float* ga, int64_t k, int64_t n, int64_t i0, int64_t i1);

// --- dB(k,n) += Aᵀ·G(m,n), output rows [p0, p1) ---
void NaiveGradBRows(const float* a, const float* g, float* gb, int64_t m,
                    int64_t k, int64_t n, int64_t p0, int64_t p1);
void BlockedGradBRows(const float* a, const float* g, float* gb, int64_t m,
                      int64_t k, int64_t n, int64_t p0, int64_t p1);

// ===========================================================================
// Reduced-precision forward kernels (eval only — see tensor/quant.h).
//
// These are explicitly OUTSIDE the bit-determinism contract above: int8
// quantizes both operands (symmetric per-tensor, scale = absmax/127) and
// accumulates exact i32 dot products with an fp32 dequant epilogue.
// Training never reaches them: ops.cc refuses the quantized paths on any
// taped tensor.
//
// int8 layout: A is packed as m rows of k zero-padded up to a multiple
// of kInt8KPack. B is packed into COLUMN-GROUP PANELS: ceil(n/8) groups
// of 8 columns, each group holding k_pad/2 depth-pairs interleaved as
// [b(2p, j), b(2p+1, j)] for the 8 columns j of the group — exactly the
// operand shape vpmaddwd wants against a broadcast A depth-pair. The
// kernel accumulates C tiles directly (no horizontal sums), so the cost
// per output is flat in k and the layout wins even at k = 64. Zero
// padding is exact in integer arithmetic, unlike fp32 tails.
//
// Quantized values are int8-range ([-127, 127]) but STORED pre-widened
// as int16: vpmaddwd consumes i16 lanes directly, so widening once at
// pack time deletes the per-iteration sign-extension (vpmovsxbw + lane
// extracts) that would otherwise choke the shuffle port and leave the
// kernel no faster than fp32.
// ===========================================================================

// Depth padding quantum of the int8 packed layout (two AVX2 registers of
// int16 lanes per step).
inline constexpr int64_t kInt8KPack = 32;

// k rounded up to the packed-depth quantum.
constexpr int64_t RoundUpK(int64_t k) {
  return (k + kInt8KPack - 1) / kInt8KPack * kInt8KPack;
}

// Element count of a packed B panel: ceil(n/8) groups of 8 columns, each
// RoundUpK(k) deep.
constexpr int64_t Int8PackedBCount(int64_t k, int64_t n) {
  return (n + 7) / 8 * 8 * RoundUpK(k);
}

// max |data[i]| over count values (0 for an empty or all-zero range).
float AbsMax(const float* data, int64_t count);

// Quantizes count values: q = clamp(round_half_even(x * inv_scale),
// -127, 127). NaN maps to 0. Values are int8-range, storage is int16
// (the packed-layout convention above).
void QuantizeSymmetric(const float* src, int64_t count, float inv_scale,
                       int16_t* dst);

// Packs A(m,k) row-major into m rows of RoundUpK(k) int16, zero padded.
// dst must hold m * RoundUpK(k) elements.
void PackAInt8(const float* a, int64_t m, int64_t k, float inv_scale,
               int16_t* dst);

// Packs B(k,n) into the column-group panel layout described above:
// group g (columns [8g, 8g+8)), depth-pair p lives at
// dst[g * 8 * RoundUpK(k) + p * 16 + (j - 8g) * 2 + s] = quant(b[2p+s][j])
// with out-of-range k and n lanes zero. dst must hold
// Int8PackedBCount(k, n) elements. Weight operands are packed once at
// model load (tensor/quant.h WeightQuant); activations per call into
// scratch.
void PackBInt8Panels(const float* b, int64_t k, int64_t n, float inv_scale,
                     int16_t* dst);

// out(m,n) rows [i0, i1) = scale · (A·B) with exact i32 accumulation,
// where aq is the m×k_pad packed A and bq a packed B panel (layouts
// above) and scale = a_scale · b_scale. When bias is non-null a fused
// epilogue runs instead: out = leaky_relu(scale·acc + bias[j],
// leaky_alpha) — the MOA attention-scoring hot path. Safe against i32
// overflow to k ≈ 2^17.
void Int8GemmRows(const int16_t* aq, const int16_t* bq, float* out,
                  int64_t k_pad, int64_t n, float scale, const float* bias,
                  float leaky_alpha, int64_t i0, int64_t i1);

// Shape heuristic for the int8 path: quantizing/packing costs O(m·k + k·n)
// and only amortises over enough dot-product work; small shapes stay on
// the (often already faster) fp32 kernels. Deterministic in shape only.
bool ShapeWantsInt8(int64_t m, int64_t k, int64_t n);

// Thread-local reduced-precision scratch (same lifetime rules as Pack*:
// valid until the same thread requests the same buffer again; workers may
// read the dispatcher's buffers during ParallelFor). A and B buffers are
// distinct so one GEMM can hold both operands packed at once.
int16_t* Int8ScratchA(size_t count);
int16_t* Int8ScratchB(size_t count);

}  // namespace hap::kernels

#endif  // HAP_TENSOR_MATMUL_KERNELS_H_
