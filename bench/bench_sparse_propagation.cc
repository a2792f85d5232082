// Before/after microbench for the GraphLevel refactor: compares the legacy
// propagation path (every layer of every forward re-derives
// SymNormalize(adjacency) densely, then a dense MatMul) against GraphLevel's
// cached operators — the dense cached path and the CSR SpMatMul fast path.
// Acceptance target: >= 2x forward speedup on sparse input levels
// (density < 10%). Emits BENCH_sparse_propagation.json (path overridable as
// argv[1]) so the perf trajectory is tracked across PRs.
// Set HAP_BENCH_FAST=1 for a quick smoke run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/graph_level.h"
#include "graph/propagation.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace hap::bench {
namespace {

// Median-of-repeats wall time for `fn`, in milliseconds.
template <typename Fn>
double TimeMs(int repeats, Fn&& fn) {
  std::vector<double> times;
  times.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() *
        1000.0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Config {
  int nodes = 0;
  double edge_probability = 0.0;
};

struct Row {
  int nodes = 0;
  double density = 0.0;
  bool auto_uses_sparse = false;
  double legacy_ms = 0.0;        // per-layer SymNormalize + dense MatMul
  double cached_dense_ms = 0.0;  // cached operator, dense MatMul
  double cached_sparse_ms = 0.0;  // cached operator, CSR SpMatMul
};

Row MeasureConfig(const Config& config, int layers, int features,
                  int repeats) {
  Rng rng(2024);
  Graph g = ConnectedErdosRenyi(config.nodes, config.edge_probability, &rng);
  Tensor adjacency = g.AdjacencyMatrix();
  GraphLevel level(adjacency);
  Tensor x = Tensor::Randn(config.nodes, features, &rng);

  Row row;
  row.nodes = config.nodes;
  row.density = level.Density();
  {
    SetSparseDispatch(SparseDispatch::kAuto);
    row.auto_uses_sparse = level.UseSparse();
  }

  NoGradGuard guard;
  // Before the refactor every GcnLayer::Forward re-derived the normalized
  // operator; L layers pay L SymNormalize calls per model forward.
  row.legacy_ms = TimeMs(repeats, [&] {
    for (int layer = 0; layer < layers; ++layer) {
      Tensor propagation = SymNormalize(adjacency);
      MatMul(propagation, x);
    }
  });
  // Operators are built on first read, and WarmCaches builds only the
  // dispatched side's, so each timed path is warmed under its own mode.
  SetSparseDispatch(SparseDispatch::kForceDense);
  level.WarmCaches();
  row.cached_dense_ms = TimeMs(repeats, [&] {
    for (int layer = 0; layer < layers; ++layer) level.Propagate(x);
  });
  SetSparseDispatch(SparseDispatch::kForceSparse);
  level.WarmCaches();
  row.cached_sparse_ms = TimeMs(repeats, [&] {
    for (int layer = 0; layer < layers; ++layer) level.Propagate(x);
  });
  SetSparseDispatch(SparseDispatch::kAuto);
  return row;
}

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_sparse_propagation.json";
  const int layers = 3;
  const int features = FastOr(16, 32);
  const int repeats = FastOr(3, 15);
  // Average degree ~6 keeps the sparse configs well under 10% density; the
  // last config is deliberately dense to show auto dispatch keeping it on
  // the dense kernel (its win over legacy is the caching alone).
  std::vector<Config> configs = {
      {128, 6.0 / 127.0},
      {256, 6.0 / 255.0},
      {512, 6.0 / 511.0},
      {128, 0.5},
  };
  if (FastOr(1, 0) == 1) configs.resize(2);

  SetNumThreads(1);  // Single-threaded kernels: isolate the algorithmic win.

  std::printf("Propagation forward, %d layers, %d features (median of %d):\n\n",
              layers, features, repeats);
  std::printf(
      "| nodes | density | legacy ms | cached dense ms | cached sparse ms | "
      "sparse speedup |\n");
  std::printf(
      "|-------|---------|-----------|-----------------|------------------|"
      "----------------|\n");

  std::vector<Row> rows;
  bool sparse_target_met = true;
  for (const Config& config : configs) {
    Row row = MeasureConfig(config, layers, features, repeats);
    const double speedup = row.legacy_ms / row.cached_sparse_ms;
    std::printf("| %5d | %6.2f%% | %9.3f | %15.3f | %16.3f | %13.2fx |\n",
                row.nodes, row.density * 100.0, row.legacy_ms,
                row.cached_dense_ms, row.cached_sparse_ms, speedup);
    if (row.density < 0.10 && speedup < 2.0) sparse_target_met = false;
    rows.push_back(row);
  }
  std::printf("\nsparse levels (density < 10%%) reach >= 2x over legacy: %s\n",
              sparse_target_met ? "YES" : "NO");

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string("sparse_propagation"));
  json.Field("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
  json.Field("threads", 1);
  json.Field("layers", layers);
  json.Field("features", features);
  json.Field("repeats", repeats);
  json.BeginArray("configs");
  for (const Row& row : rows) {
    json.BeginObject();
    json.Field("nodes", row.nodes);
    json.Field("density", row.density);
    json.Field("auto_uses_sparse", row.auto_uses_sparse);
    json.Field("legacy_per_layer_normalize_ms", row.legacy_ms);
    json.Field("graphlevel_cached_dense_ms", row.cached_dense_ms);
    json.Field("graphlevel_cached_sparse_ms", row.cached_sparse_ms);
    json.Field("speedup_sparse_vs_legacy",
               row.legacy_ms / row.cached_sparse_ms);
    json.Field("speedup_dense_vs_legacy", row.legacy_ms / row.cached_dense_ms);
    json.EndObject();
  }
  json.EndArray();
  json.Field("sparse_levels_reach_2x", sparse_target_met);
  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::printf("FAILED to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return sparse_target_met ? 0 : 1;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) { return hap::bench::Main(argc, argv); }
