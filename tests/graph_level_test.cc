#include "graph/graph_level.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "core/coarsening.h"
#include "graph/featurize.h"
#include "graph/generators.h"
#include "graph/propagation.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "train/prepared.h"

namespace hap {
namespace {

// Restores the process-global dispatch mode when a test scope exits, so a
// failing assertion cannot leak kForceSparse into later tests.
class DispatchScope {
 public:
  explicit DispatchScope(SparseDispatch mode) : saved_(GetSparseDispatch()) {
    SetSparseDispatch(mode);
  }
  ~DispatchScope() { SetSparseDispatch(saved_); }

 private:
  SparseDispatch saved_;
};

// memcmp-equality: same shape, same bytes.
void ExpectSameBytes(const Tensor& actual, const Tensor& expected) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        sizeof(float) * expected.size()),
            0);
}

TEST(FromTripletsTest, SumsDuplicatesAcrossUnsortedInput) {
  // Triplets arrive unsorted within and across rows; duplicates of the same
  // coordinate must be summed into a single stored entry.
  CsrMatrix csr = CsrMatrix::FromTriplets(
      3, 4, {2, 0, 2, 0, 2, 1}, {3, 1, 0, 1, 3, 2},
      {5.0f, 1.0f, -2.0f, 0.5f, 0.25f, 7.0f});
  EXPECT_EQ(csr.nnz(), 4);
  Tensor dense = csr.ToDense();
  EXPECT_EQ(dense.At(0, 1), 1.5f);   // 1.0 + 0.5
  EXPECT_EQ(dense.At(1, 2), 7.0f);
  EXPECT_EQ(dense.At(2, 0), -2.0f);
  EXPECT_EQ(dense.At(2, 3), 5.25f);  // 5.0 + 0.25
  EXPECT_EQ(dense.At(0, 0), 0.0f);
}

TEST(FromTripletsTest, DuplicatesThatCancelStillOccupyOneEntry) {
  // Summed duplicates that cancel to zero keep their structural slot: CSR
  // stores the summed value, it does not re-filter after accumulation.
  CsrMatrix csr =
      CsrMatrix::FromTriplets(2, 2, {0, 0}, {1, 1}, {3.0f, -3.0f});
  EXPECT_EQ(csr.nnz(), 1);
  EXPECT_EQ(csr.ToDense().At(0, 1), 0.0f);
}

TEST(GraphLevelTest, LeafAdjacencyIsCacheable) {
  Rng rng(7);
  Graph g = ConnectedErdosRenyi(10, 0.3, &rng);
  GraphLevel level(g.AdjacencyMatrix());
  EXPECT_TRUE(level.cacheable());
  EXPECT_EQ(level.num_nodes(), 10);
}

TEST(GraphLevelTest, CachedOperatorsMatchFreshComputation) {
  DispatchScope scope(SparseDispatch::kForceDense);
  Rng rng(11);
  Graph g = ConnectedErdosRenyi(12, 0.25, &rng);
  Tensor adjacency = g.AdjacencyMatrix();
  GraphLevel level(adjacency);
  level.WarmCaches();
  Tensor x = Tensor::Randn(12, 5, &rng);

  ExpectSameBytes(level.Propagate(x), MatMul(SymNormalize(adjacency), x));
  ExpectSameBytes(level.PropagateRowNormalized(x),
                  MatMul(RowNormalize(adjacency), x));
  Tensor cached_mask = level.LogMask();
  ExpectSameBytes(cached_mask, NeighborhoodLogMask(adjacency));
  // Cached accessors hand back the same underlying buffer on repeat calls.
  EXPECT_EQ(level.LogMask().data(), cached_mask.data());
}

TEST(GraphLevelTest, CacheCoherentAfterCoarseningProducesNewLevel) {
  // The Eq. 18 output A' = MᵀAM built under NoGradGuard is a gradient-free
  // leaf, so the next level caches it; its cached operators, dense and
  // CSR, must propagate exactly as a fresh SymNormalize of the coarsened
  // adjacency.
  Rng rng(13);
  Graph g = ConnectedErdosRenyi(14, 0.3, &rng);
  Tensor h = Tensor::Randn(14, 6, &rng);
  GraphLevel level(g.AdjacencyMatrix());

  CoarseningConfig config;
  config.in_features = 6;
  config.num_clusters = 4;
  Rng model_rng(5);
  CoarseningModule coarsener(config, &model_rng);
  coarsener.set_training(false);

  NoGradGuard guard;
  CoarsenResult coarse = coarsener.Forward(h, level);
  ASSERT_TRUE(coarse.level.defined());
  EXPECT_TRUE(coarse.level.cacheable());
  Tensor x = Tensor::Randn(4, 3, &rng);
  Tensor fresh = MatMul(SymNormalize(coarse.level.adjacency()), x);
  for (SparseDispatch mode :
       {SparseDispatch::kForceDense, SparseDispatch::kForceSparse}) {
    DispatchScope scope(mode);
    ExpectSameBytes(coarse.level.Propagate(x), fresh);
  }
}

TEST(GraphLevelTest, TapedAdjacencyIsNeverCachedOrSparse) {
  Rng rng(17);
  Tensor leaf = Tensor::Randn(6, 6, &rng, 1.0f, /*requires_grad=*/true);
  Tensor taped = Mul(leaf, leaf);
  GraphLevel level(taped);
  EXPECT_FALSE(level.cacheable());
  {
    DispatchScope scope(SparseDispatch::kForceSparse);
    EXPECT_FALSE(level.UseSparse());
  }
  // Fresh computation each call: results are taped, so gradients still flow
  // through the normalized operator.
  Tensor x = Tensor::Randn(6, 3, &rng);
  Tensor out = level.Propagate(x);
  ReduceSumAll(out).Backward();
  bool any_nonzero = false;
  for (float v : leaf.grad()) any_nonzero |= (v != 0.0f);
  EXPECT_TRUE(any_nonzero);
}

TEST(GraphLevelTest, SparseAndDensePropagationBitIdentical) {
  // Unit weights and weights drawn from [0.1, 2): the CSR operators are
  // built from the adjacency CSR, and must still propagate bit for bit as
  // the dense operators do.
  Rng rng(19);
  for (bool weighted : {false, true}) {
    Graph g = ConnectedErdosRenyi(16, 0.15, &rng);
    if (weighted) {
      for (const auto& [u, v] : g.Edges()) {
        g.AddEdge(u, v, static_cast<float>(rng.Uniform(0.1, 2.0)));
      }
    }
    GraphLevel level(g.AdjacencyMatrix());
    Tensor x = Tensor::Randn(16, 8, &rng);

    Tensor dense_prop, dense_row, dense_agg;
    {
      DispatchScope scope(SparseDispatch::kForceDense);
      EXPECT_FALSE(level.UseSparse());
      dense_prop = level.Propagate(x);
      dense_row = level.PropagateRowNormalized(x);
      dense_agg = level.Aggregate(x);
    }
    DispatchScope scope(SparseDispatch::kForceSparse);
    EXPECT_TRUE(level.UseSparse());
    ExpectSameBytes(level.Propagate(x), dense_prop);
    ExpectSameBytes(level.PropagateRowNormalized(x), dense_row);
    ExpectSameBytes(level.Aggregate(x), dense_agg);
  }
}

TEST(GraphLevelTest, AutoDispatchFollowsDensityCutoff) {
  DispatchScope scope(SparseDispatch::kAuto);
  // A near-empty cycle graph sits far below the cutoff.
  Graph ring = Cycle(20);
  GraphLevel sparse_level(ring.AdjacencyMatrix());
  EXPECT_LT(sparse_level.Density(), kSparseDispatchDensity);
  EXPECT_TRUE(sparse_level.UseSparse());
  // A fully dense matrix (softmax-coarsened shape) stays on the dense path.
  GraphLevel dense_level(Tensor::Full(8, 8, 0.125f));
  EXPECT_GE(dense_level.Density(), kSparseDispatchDensity);
  EXPECT_FALSE(dense_level.UseSparse());
}

TEST(GraphLevelTest, CopiesShareOneCache) {
  Rng rng(29);
  Graph g = ConnectedErdosRenyi(9, 0.3, &rng);
  GraphLevel level(g.AdjacencyMatrix());
  GraphLevel copy = level;
  // Filling through the copy fills the original's cache: same buffer.
  EXPECT_EQ(level.LogMask().data(), copy.LogMask().data());
}

// The process-wide graph_level.cache.* counters, read with detailed
// metrics on, as deltas since the fixture's SetUp.
class GraphLevelCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetMetricsEnabled(true);
    hits0_ = Read(obs::names::kGraphCacheHit);
    misses0_ = Read(obs::names::kGraphCacheMiss);
    uncached0_ = Read(obs::names::kGraphUncached);
  }
  void TearDown() override { obs::SetMetricsEnabled(false); }

  uint64_t hits() const { return Read(obs::names::kGraphCacheHit) - hits0_; }
  uint64_t misses() const {
    return Read(obs::names::kGraphCacheMiss) - misses0_;
  }
  uint64_t uncached() const {
    return Read(obs::names::kGraphUncached) - uncached0_;
  }

 private:
  static uint64_t Read(const char* name) { return obs::CounterValue(name); }
  uint64_t hits0_ = 0, misses0_ = 0, uncached0_ = 0;
};

TEST_F(GraphLevelCacheTest, FirstReadMissesThenHits) {
  Rng rng(31);
  Graph g = ConnectedErdosRenyi(10, 0.3, &rng);
  GraphLevel level(g.AdjacencyMatrix());
  EXPECT_EQ(hits() + misses(), 0u);  // construction builds nothing

  level.LogMask();  // first read builds and fills the cache
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);

  level.LogMask();
  level.LogMask();
  EXPECT_EQ(misses(), 1u);  // misses frozen once the cache is warm
  EXPECT_EQ(hits(), 2u);
}

TEST_F(GraphLevelCacheTest, WarmCachesIsExactlyOneMissPerOperator) {
  DispatchScope scope(SparseDispatch::kForceDense);
  Rng rng(37);
  Graph g = ConnectedErdosRenyi(11, 0.3, &rng);
  GraphLevel level(g.AdjacencyMatrix());
  level.WarmCaches();
  // Dense dispatch: the dense sym operator only; no row operator, log
  // mask or CSR.
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);

  // Re-warming reads only the filled cache: hits grow, misses do not.
  level.WarmCaches();
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 1u);
}

TEST_F(GraphLevelCacheTest, SparseWarmFillsCsrCaches) {
  DispatchScope scope(SparseDispatch::kForceSparse);
  GraphLevel level(Cycle(12).AdjacencyMatrix());
  level.WarmCaches();
  EXPECT_EQ(misses(), 2u);  // the adjacency CSR and the sym CSR
  EXPECT_EQ(hits(), 0u);

  // The row CSR is built on first read, from the warm adjacency CSR.
  level.PropagateRowNormalized(Tensor::Ones(12, 2));
  EXPECT_EQ(misses(), 3u);
  EXPECT_EQ(hits(), 1u);
}

TEST_F(GraphLevelCacheTest, SparseWarmBuildsNoDenseOperator) {
  // What PrepareGraph leaves on a sparse-dispatched graph: the adjacency
  // is the only dense N×N tensor, so every dense operator's first read
  // is a miss.
  DispatchScope auto_scope(SparseDispatch::kAuto);
  Rng rng(47);
  PreparedGraph prepared =
      PrepareGraph(ConnectedErdosRenyi(40, 0.05, &rng), FeatureSpec{});
  const GraphLevel& level = prepared.level;
  ASSERT_TRUE(level.UseSparse());
  EXPECT_EQ(misses(), 2u);  // the adjacency CSR and the sym CSR
  EXPECT_EQ(hits(), 0u);

  level.LogMask();
  EXPECT_EQ(misses(), 3u);
  DispatchScope dense_scope(SparseDispatch::kForceDense);
  level.Propagate(prepared.h);
  level.PropagateRowNormalized(prepared.h);
  EXPECT_EQ(misses(), 5u);
  EXPECT_EQ(hits(), 0u);
}

TEST_F(GraphLevelCacheTest, WarmSparsePropagateIsOneHit) {
  DispatchScope scope(SparseDispatch::kForceSparse);
  Rng rng(53);
  GraphLevel level(ConnectedErdosRenyi(15, 0.2, &rng).AdjacencyMatrix());
  level.WarmCaches();
  const uint64_t warm_misses = misses();
  const uint64_t warm_hits = hits();
  level.Propagate(Tensor::Randn(15, 4, &rng));
  EXPECT_EQ(hits() - warm_hits, 1u);  // the sym CSR, and nothing else
  EXPECT_EQ(misses(), warm_misses);
}

TEST_F(GraphLevelCacheTest, ConcurrentFirstReadsBuildEachOperatorOnce) {
  // Operators are built on first read, so workers sharing a prepared
  // graph race to fill its caches: each operator must be built once, and
  // every thread must see the same bytes.
  DispatchScope scope(SparseDispatch::kForceSparse);
  Rng rng(59);
  GraphLevel level(ConnectedErdosRenyi(24, 0.2, &rng).AdjacencyMatrix());
  Tensor x = Tensor::Randn(24, 3, &rng);
  constexpr int kThreads = 4;
  std::vector<std::vector<Tensor>> outputs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outputs[t] = {level.Propagate(x), level.PropagateRowNormalized(x),
                    level.Aggregate(x), level.LogMask()};
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(misses(), 4u);  // adjacency, sym and row CSR, log mask
  for (int t = 1; t < kThreads; ++t) {
    for (size_t i = 0; i < outputs[0].size(); ++i) {
      ExpectSameBytes(outputs[t][i], outputs[0][i]);
    }
  }
}

TEST_F(GraphLevelCacheTest, TapedLevelCountsUncachedOnEveryRead) {
  Rng rng(41);
  Tensor leaf = Tensor::Randn(6, 6, &rng, 1.0f, /*requires_grad=*/true);
  GraphLevel level(Mul(leaf, leaf));
  ASSERT_FALSE(level.cacheable());
  Tensor x = Tensor::Randn(6, 2, &rng);
  level.Propagate(x);
  level.Propagate(x);
  level.LogMask();
  EXPECT_EQ(uncached(), 3u);  // recomputed on every read
  EXPECT_EQ(hits() + misses(), 0u);
  EXPECT_EQ(level.AdjacencyCsrOrNull(), nullptr);
}

TEST_F(GraphLevelCacheTest, CopiesCountOneSharedCache) {
  Rng rng(43);
  Graph g = ConnectedErdosRenyi(8, 0.35, &rng);
  GraphLevel level(g.AdjacencyMatrix());
  GraphLevel copy = level;
  copy.LogMask();
  EXPECT_EQ(misses(), 1u);
  level.LogMask();
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 1u);
}

}  // namespace
}  // namespace hap
