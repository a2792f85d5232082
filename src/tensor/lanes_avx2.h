// 8-lane AVX2 helpers shared by the fp32 GEMM kernels (matmul_kernels.cc)
// and the CSR×dense kernels (sparse.cc).
//
// A kernel body handles a run of `width` consecutive floats of an output
// row as V vectors of 8 lanes. Only the last vector may be partial: its
// loads go through _mm256_maskload_ps, so lanes past the run read as 0.0f
// and never touch memory beyond it, and its store goes through
// _mm256_maskstore_ps, so those lanes are never written. A masked lane
// therefore computes on zeros that no output ever sees, and every stored
// element adds the same terms in the same order as with full vectors.
//
// Only include this from .cc files, and use it inside HAP_KERNELS_X86
// guards: every function here needs the avx2 target.
#ifndef HAP_TENSOR_LANES_AVX2_H_
#define HAP_TENSOR_LANES_AVX2_H_

#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAP_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace hap::kernels {

// fp32 lanes per AVX2 vector.
inline constexpr int64_t kLanes = 8;

}  // namespace hap::kernels

#if HAP_KERNELS_X86

namespace hap::kernels {

// Mask of the first `lanes` (1..8) lanes of a vector.
__attribute__((target("avx2"))) inline __m256i LaneMask(int64_t lanes) {
  static const int32_t kRamp[2 * kLanes] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kRamp + kLanes - lanes));
}

// The mask LoadLanes and StoreLanes take for a run of `width` floats.
template <bool kMasked>
__attribute__((target("avx2"))) inline __m256i RunMask(int64_t width) {
  return kMasked ? LaneMask(width % kLanes) : _mm256_setzero_si256();
}

// Vector v of a V-vector run: full, or masked when it is the run's last
// vector and the run ends in a partial one.
template <int V, bool kMasked>
__attribute__((target("avx2"))) inline __m256 LoadLanes(const float* run,
                                                        int v, __m256i mask) {
  if (kMasked && v == V - 1) return _mm256_maskload_ps(run + v * kLanes, mask);
  return _mm256_loadu_ps(run + v * kLanes);
}

template <int V, bool kMasked>
__attribute__((target("avx2"))) inline void StoreLanes(float* run, int v,
                                                       __m256i mask,
                                                       __m256 value) {
  if (kMasked && v == V - 1) {
    _mm256_maskstore_ps(run + v * kLanes, mask, value);
  } else {
    _mm256_storeu_ps(run + v * kLanes, value);
  }
}

// Runs Body<V, kMasked>::Run(args...) for a run of `width` floats,
// 1 <= width <= kMaxV * 8: V = ceil(width / 8) vectors, the last one
// masked when width % 8 != 0. Bodies rebuild the mask with
// RunMask<kMasked>(width) from the width they are passed.
template <template <int, bool> class Body, int kMaxV, typename... Args>
void RunLanes(int64_t width, Args... args) {
  static_assert(kMaxV >= 1 && kMaxV <= 4);
  const bool masked = width % kLanes != 0;
  switch ((width + kLanes - 1) / kLanes) {
    case 1:
      return masked ? Body<1, true>::Run(args...)
                    : Body<1, false>::Run(args...);
    case 2:
      if constexpr (kMaxV >= 2) {
        return masked ? Body<2, true>::Run(args...)
                      : Body<2, false>::Run(args...);
      }
      break;
    case 3:
      if constexpr (kMaxV >= 3) {
        return masked ? Body<3, true>::Run(args...)
                      : Body<3, false>::Run(args...);
      }
      break;
    case 4:
      if constexpr (kMaxV >= 4) {
        return masked ? Body<4, true>::Run(args...)
                      : Body<4, false>::Run(args...);
      }
      break;
  }
}

}  // namespace hap::kernels

#endif  // HAP_KERNELS_X86

#endif  // HAP_TENSOR_LANES_AVX2_H_
