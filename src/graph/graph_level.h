#ifndef HAP_GRAPH_GRAPH_LEVEL_H_
#define HAP_GRAPH_GRAPH_LEVEL_H_

#include <memory>

#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace hap {

/// How GraphLevel chooses between the dense MatMul path and the CSR
/// SpMatMul path for its cached propagation operators. kAuto dispatches on
/// the level's edge density (see kSparseDispatchDensity); the force modes
/// exist for the parity tests and benchmarks, which must pin one path.
enum class SparseDispatch {
  kAuto,
  kForceDense,
  kForceSparse,
};

/// Process-global dispatch policy (atomic; default kAuto). Like
/// SetNumThreads this is a process-wide knob, set once at startup or around
/// a benchmark/test region, not per call.
void SetSparseDispatch(SparseDispatch mode);
SparseDispatch GetSparseDispatch();

/// Density cutoff for kAuto: levels whose adjacency density (measured at
/// kSparsityThreshold, i.e. the exact entry set CSR would store) is below
/// this fraction use the O(nnz·d) sparse path; denser levels (notably
/// softmax-coarsened adjacencies, which are fully dense) stay on the
/// blocked dense kernel.
inline constexpr double kSparseDispatchDensity = 0.25;

/// One level of a graph hierarchy, viewed through its adjacency matrix.
///
/// GraphLevel owns the adjacency and builds each derived operator on its
/// first read, then caches it:
///   - the CSR form of the adjacency and of the normalized operators,
///   - the sym-normalized propagation matrix D̃^{-1/2}ÃD̃^{-1/2} (GCN),
///   - the row-normalized matrix D̃^{-1}Ã (ASAP/AttPool/GMN),
///   - the neighborhood log mask (GAT/ASAP attention).
/// The normalized CSR operators are built from the adjacency CSR by one
/// path for dense-backed and sparse-native levels alike, byte-identical to
/// the CSR of the dense operators of propagation.h. Every read of a cached
/// operator ticks exactly one graph_level.cache.hit or .miss.
///
/// Caching invariant: derived operators are cached ONLY when the adjacency
/// is a gradient-free leaf (requires_grad() false and no tape parents) —
/// then SymNormalize/RowNormalize produce untaped constants that can be
/// reused across epochs, eval passes, and data-parallel workers without
/// touching any autograd state. For taped adjacencies (training-mode
/// coarsened levels, A' = MᵀAM) every read computes a fresh taped result
/// (ticking graph_level.cache.uncached); the sym operator's is one
/// SymNormalize node.
///
/// GraphLevel is a cheap shared-state handle (copies alias one State, like
/// Tensor); each cached operator is built once under its own once-flag, so
/// concurrent workers sharing a prepared dataset race-freely fill it.
class GraphLevel {
 public:
  GraphLevel() = default;
  explicit GraphLevel(Tensor adjacency);

  /// Sparse-native level: the adjacency exists only in CSR form and no
  /// dense N×N tensor is ever materialised (docs/SPARSE.md). This is how
  /// 100k-node graphs enter the system — a dense adjacency at that size
  /// would be 40 GB. Sparse-native levels are always cacheable (the CSR
  /// holds input data, not taped values) and always dispatch sparse;
  /// adjacency() and LogMask() CHECK-fail, and consumers that need them
  /// must test has_dense_adjacency() first.
  explicit GraphLevel(CsrMatrix adjacency);

  bool defined() const { return state_ != nullptr; }

  /// Address of the shared state: equal exactly when two handles are
  /// copies of one level (two levels built over one tensor differ).
  const void* identity() const { return state_.get(); }

  /// True when this level is dense-backed and adjacency() may be called.
  /// False for sparse-native levels (CSR only).
  bool has_dense_adjacency() const;

  const Tensor& adjacency() const;
  int num_nodes() const;

  /// CSR view of the raw adjacency when one is available: the native CSR
  /// for sparse-native levels, the cached FromDense conversion for
  /// cacheable dense levels, and nullptr for taped (non-cacheable) levels
  /// — building CSR from a taped adjacency would detach it from the tape.
  /// The coarsening module keys its topk/auto dispatch off this.
  const CsrMatrix* AdjacencyCsrOrNull() const;

  /// True when the adjacency is a gradient-free leaf and derived operators
  /// may be cached (see class comment).
  bool cacheable() const;

  /// Fraction of adjacency entries with |value| > kSparsityThreshold.
  /// Computed once and cached (a pure data read, safe even on taped
  /// adjacencies); not counted as a cache read.
  double Density() const;

  /// Whether this level's propagation uses the CSR fast path under the
  /// current dispatch policy. Sparse dispatch additionally requires the
  /// level to be cacheable: building CSR from a taped adjacency would
  /// detach it from the tape.
  bool UseSparse() const;

  /// Additive attention mask over the self-loop neighbourhood (cached when
  /// cacheable). See NeighborhoodLogMask.
  Tensor LogMask() const;

  /// D̃^{-1/2}ÃD̃^{-1/2} · x — the GCN propagation step. Uses SpMatMul
  /// over the CSR operator when UseSparse(), else the dense MatMul;
  /// bit-identical either way (see kSparsityThreshold).
  Tensor Propagate(const Tensor& x) const;

  /// D̃^{-1}Ã · x — mean aggregation (ASAP, AttPool, GMN).
  Tensor PropagateRowNormalized(const Tensor& x) const;

  /// adjacency · x — raw sum aggregation (GIN, coarsening, StructPool).
  Tensor Aggregate(const Tensor& x) const;

  /// Builds what Propagate and Aggregate read on this level's dispatch
  /// side under the current policy: the density plus, when UseSparse(),
  /// the adjacency and sym CSR, else the dense sym operator. Everything
  /// else is built on first read. No-op for non-cacheable levels.
  void WarmCaches() const;

 private:
  struct State;

  /// The normalized operators behind Propagate/PropagateRowNormalized:
  /// dense (recomputed on every read when not cacheable) and CSR
  /// (cacheable levels only).
  Tensor SymNormalized() const;
  Tensor RowNormalized() const;
  const CsrMatrix& SymCsr() const;
  const CsrMatrix& RowCsr() const;

  std::shared_ptr<State> state_;
};

}  // namespace hap

#endif  // HAP_GRAPH_GRAPH_LEVEL_H_
