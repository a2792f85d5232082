#ifndef HAP_CORE_GUMBEL_H_
#define HAP_CORE_GUMBEL_H_

#include "common/rng.h"
#include "tensor/tensor.h"

namespace hap {

/// Gumbel-Softmax soft sampling of a coarsened adjacency (Eq. 19):
///   Ã'_ij = softmax_j( (log A'_ij + g_ij) / tau ),  g = -log(-log U).
///
/// With the paper's tau = 0.1 the rows approach one-hot, sparsifying the
/// fully-connected coarsened graph while keeping it connected (every row
/// retains mass). Entries are clamped to [eps, 1/eps] before the log, so
/// degenerate inputs a server will see stay finite: an all-zero row
/// (isolated node) yields a uniform softmax row, and non-finite or
/// overflowed weights (inf/NaN) cannot poison the row with NaN. When
/// `training` is false the noise is omitted, making inference
/// deterministic — the expectation path documented in DESIGN.md.
///
/// One op: clamp, log, noise, 1/tau and the row softmax run in one pass
/// per row, memcmp-equal to the composed tensor ops in fp32, and the noise
/// is drawn in row-major order, so a seeded stream yields the same
/// samples. A taped result's backward reads only the output and A'.
Tensor GumbelSoftSample(const Tensor& adjacency, float tau, Rng* rng,
                        bool training, float eps = 1e-9f);

}  // namespace hap

#endif  // HAP_CORE_GUMBEL_H_
