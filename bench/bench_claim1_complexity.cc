// Reproduces Claim 1 (Sec. 5.1): the graph coarsening module's cost grows
// as O(N²) in the source graph size (for fixed downsampling ratio the
// series below doubles N and the per-iteration time should roughly
// quadruple), and the full HAP forward is dominated by that term.
// google-benchmark reports ns/op for each N; the per-N timings and fitted
// complexity coefficients are also written to BENCH_claim1_complexity.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/coarsening.h"
#include "graph/generators.h"

namespace hap::bench {
namespace {

constexpr int kFeatureDim = 32;

void BM_CoarseningForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  CoarseningConfig config;
  config.in_features = kFeatureDim;
  // Fixed downsampling ratio r = 1/4 (Claim 1's setting).
  config.num_clusters = std::max(1, n / 4);
  CoarseningModule module(config, &rng);
  module.set_training(false);
  Graph g = ConnectedErdosRenyi(n, 8.0 / n, &rng);
  Tensor h = Tensor::Randn(n, kFeatureDim, &rng);
  Tensor adj = g.AdjacencyMatrix();
  for (auto _ : state) {
    NoGradGuard guard;
    CoarsenResult result = module.Forward(h, GraphLevel(adj));
    benchmark::DoNotOptimize(result.h.data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_CoarseningForward)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_MoaAttentionOnly(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  CoarseningConfig config;
  config.in_features = kFeatureDim;
  config.num_clusters = std::max(1, n / 4);
  CoarseningModule module(config, &rng);
  Tensor h = Tensor::Randn(n, kFeatureDim, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor m = module.ComputeAttention(module.ComputeGCont(h));
    benchmark::DoNotOptimize(m.data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MoaAttentionOnly)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_HapModelForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  HapConfig config = DefaultHapConfig(kFeatureDim, 32);
  auto model = MakeHapModel(config, &rng);
  model->set_training(false);
  Graph g = ConnectedErdosRenyi(n, 8.0 / n, &rng);
  Tensor h = Tensor::Randn(n, kFeatureDim, &rng);
  Tensor adj = g.AdjacencyMatrix();
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor e = model->Embed(h, GraphLevel(adj));
    benchmark::DoNotOptimize(e.data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_HapModelForward)->RangeMultiplier(2)->Range(32, 256)->Complexity();

// Console output as usual, plus every finished run retained so Main can
// serialize the measurement series into the BENCH_*.json trajectory file.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) runs_.push_back(run);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

int Main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Any leftover non-flag argument overrides the JSON output path.
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_claim1_complexity.json";
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string("claim1_complexity"));
  json.BeginArray("runs");
  for (const auto& run : reporter.runs()) {
    json.BeginObject();
    json.Field("name", run.benchmark_name());
    json.Field("run_type",
               std::string(run.run_type ==
                                   benchmark::BenchmarkReporter::Run::RT_Aggregate
                               ? "aggregate"
                               : "iteration"));
    if (!run.aggregate_name.empty()) {
      json.Field("aggregate", run.aggregate_name);
    }
    json.Field("complexity_n", static_cast<int>(run.complexity_n));
    json.Field("iterations", static_cast<int>(run.iterations));
    // For plain runs this is time per iteration; for the "_BigO" rows it
    // is the fitted coefficient, for "_RMS" the normalized fit residual.
    json.Field("adjusted_real_time", run.GetAdjustedRealTime());
    json.Field("adjusted_cpu_time", run.GetAdjustedCPUTime());
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (json.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) { return hap::bench::Main(argc, argv); }
