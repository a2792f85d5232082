// Parallel-execution scaling harness: measures the thread-pool kernels at
// 1/2/4/8 threads, and HAP classifier training with the serial loop
// (TrainConfig::num_threads = 0) against the data-parallel runner at
// 1/2/4/8 workers. Training rows alternate within each repeat, and each
// reports the median and quartiles of its repeats; speedups are relative
// to the serial loop's median. Exits non-zero unless every runner row
// ends on the same loss and every row repeats its own loss exactly (the
// determinism contract of docs/THREADING.md).
// Emits BENCH_parallel_scaling.json (path overridable as argv[1]) so the
// perf trajectory is tracked across PRs.
// Set HAP_BENCH_FAST=1 for a quick smoke run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/hap_model.h"
#include "graph/datasets.h"
#include "tensor/ops.h"
#include "train/classifier.h"

namespace hap::bench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Linear-interpolated quantile q of `values`.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// Median-of-repeats wall time for `fn`, in milliseconds.
template <typename Fn>
double TimeMs(int repeats, Fn&& fn) {
  std::vector<double> times;
  times.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    times.push_back(SecondsSince(start) * 1000.0);
  }
  return Quantile(std::move(times), 0.5);
}

struct KernelTimings {
  double forward_ms = 0.0;
  double train_step_ms = 0.0;  // forward + backward
};

KernelTimings MatMulTimings(int size, int repeats) {
  Rng rng(42);
  Tensor a = Tensor::Randn(size, size, &rng);
  Tensor b = Tensor::Randn(size, size, &rng);
  KernelTimings t;
  {
    NoGradGuard guard;
    t.forward_ms = TimeMs(repeats, [&] { MatMul(a, b); });
  }
  Tensor ag = Tensor::Randn(size, size, &rng, 1.0f, /*requires_grad=*/true);
  Tensor bg = Tensor::Randn(size, size, &rng, 1.0f, /*requires_grad=*/true);
  t.train_step_ms = TimeMs(repeats, [&] {
    ReduceSumAll(MatMul(ag, bg)).Backward();
  });
  return t;
}

struct TrainRun {
  double seconds = 0.0;
  double final_loss = 0.0;
};

TrainRun TimedClassifierRun(const std::vector<PreparedGraph>& data,
                            const Split& split, const HapConfig& config,
                            int num_classes, int epochs, int num_threads) {
  Rng model_rng(0xbadc0ffe);
  GraphClassifier model(MakeHapModel(config, &model_rng), num_classes, 16,
                        &model_rng);
  auto factory = [&config, num_classes]() {
    Rng replica_rng(1);
    return std::make_unique<GraphClassifier>(MakeHapModel(config, &replica_rng),
                                             num_classes, 16, &replica_rng);
  };
  TrainConfig tc;
  tc.epochs = epochs;
  tc.patience = 0;
  tc.batch_size = 8;
  tc.seed = 7;
  tc.num_threads = num_threads;
  const auto start = std::chrono::steady_clock::now();
  ClassificationResult result =
      TrainClassifier(&model, data, split, tc, factory);
  TrainRun run;
  run.seconds = SecondsSince(start);
  run.final_loss = result.epoch_losses.empty() ? 0.0
                                               : result.epoch_losses.back();
  return run;
}

// One training configuration over all repeats: the serial loop
// (num_threads 0) or the runner with `num_threads` workers.
struct TrainRow {
  int num_threads = 0;
  std::vector<double> seconds;
  double final_loss = 0.0;
  bool repeatable = true;  // every repeat ended on the same loss
};

std::string TrainerName(int num_threads) {
  if (num_threads == 0) return "serial loop";
  return "runner, " + std::to_string(num_threads) +
         (num_threads == 1 ? " worker" : " workers");
}

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_parallel_scaling.json";
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const int matmul_size = FastOr(96, 512);
  const int matmul_repeats = FastOr(3, 7);
  // 3200 graphs x 8 epochs keeps every training row above a second on a
  // 4-core host; five alternating repeats give each row its quartiles.
  const int graphs = FastOr(24, 3200);
  const int epochs = FastOr(2, 8);
  const int repeats = FastOr(1, 5);
  const std::vector<int> trainer_threads = {0, 1, 2, 4, 8};
  const int pool_threads = 8;  // the runner takes its workers from the pool

  std::printf("hardware_concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  // --- Kernel scaling: square matmul forward and forward+backward. ---
  std::printf("MatMul %dx%d (median of %d):\n\n", matmul_size, matmul_size,
              matmul_repeats);
  std::printf("| threads | forward ms | speedup | fwd+bwd ms | speedup |\n");
  std::printf("|---------|------------|---------|------------|---------|\n");
  KernelTimings base;
  std::vector<KernelTimings> kernel_rows;
  for (int threads : thread_counts) {
    SetNumThreads(threads);
    const KernelTimings t = MatMulTimings(matmul_size, matmul_repeats);
    if (threads == 1) base = t;
    kernel_rows.push_back(t);
    std::printf("| %7d | %10.2f | %6.2fx | %10.2f | %6.2fx |\n", threads,
                t.forward_ms, base.forward_ms / t.forward_ms,
                t.train_step_ms, base.train_step_ms / t.train_step_ms);
  }

  // --- Data-parallel training: PROTEINS-like classification epochs. ---
  Rng data_rng(20240801);
  GraphDataset ds = MakeProteinsLike(graphs, &data_rng);
  auto data = PrepareDataset(ds);
  Split split = SplitIndices(static_cast<int>(data.size()), &data_rng);
  HapConfig config = DefaultHapConfig(ds.feature_spec.FeatureDim(), 16);

  std::printf(
      "\nHAP classification, %s-like, %d graphs, %d epochs, pool width %d, "
      "median of %d alternating repeats:\n\n",
      ds.name.c_str(), graphs, epochs, pool_threads, repeats);
  SetNumThreads(pool_threads);
  std::vector<TrainRow> rows(trainer_threads.size());
  for (int rep = 0; rep < repeats; ++rep) {
    // Each repeat runs every configuration once, in alternating order, so
    // drift in the host's speed spreads over all rows alike.
    for (size_t k = 0; k < rows.size(); ++k) {
      const size_t i = rep % 2 == 0 ? k : rows.size() - 1 - k;
      const TrainRun run =
          TimedClassifierRun(data, split, config, ds.num_classes, epochs,
                             trainer_threads[i]);
      TrainRow& row = rows[i];
      row.num_threads = trainer_threads[i];
      if (row.seconds.empty()) {
        row.final_loss = run.final_loss;
      } else if (run.final_loss != row.final_loss) {
        row.repeatable = false;
      }
      row.seconds.push_back(run.seconds);
    }
  }
  // The runner's trajectory is the same at every worker count; the serial
  // loop keeps its own (docs/THREADING.md).
  bool deterministic = true;
  for (const TrainRow& row : rows) {
    deterministic = deterministic && row.repeatable;
    if (row.num_threads >= 1 && row.final_loss != rows[1].final_loss) {
      deterministic = false;
    }
  }
  const double serial_median = Quantile(rows[0].seconds, 0.5);
  std::printf("| trainer | median s | quartiles s | speedup vs serial | "
              "final epoch loss |\n");
  std::printf("|---------|----------|-------------|-------------------|"
              "------------------|\n");
  for (const TrainRow& row : rows) {
    const double median = Quantile(row.seconds, 0.5);
    std::printf("| %s | %.3f | %.3f-%.3f | %.2fx | %.12f |\n",
                TrainerName(row.num_threads).c_str(), median,
                Quantile(row.seconds, 0.25), Quantile(row.seconds, 0.75),
                serial_median / median, row.final_loss);
  }
  std::printf("\nrunner loss identical at every worker count, and every "
              "row repeatable: %s\n",
              deterministic ? "YES" : "NO");

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string("parallel_scaling"));
  json.Field("hardware_concurrency",
             static_cast<int>(std::thread::hardware_concurrency()));
  json.Field("matmul_size", matmul_size);
  json.Field("graphs", graphs);
  json.Field("epochs", epochs);
  json.Field("repeats", repeats);
  json.Field("pool_threads", pool_threads);
  json.BeginArray("matmul");
  for (size_t i = 0; i < kernel_rows.size(); ++i) {
    json.BeginObject();
    json.Field("threads", thread_counts[i]);
    json.Field("forward_ms", kernel_rows[i].forward_ms);
    json.Field("forward_speedup",
               base.forward_ms / kernel_rows[i].forward_ms);
    json.Field("train_step_ms", kernel_rows[i].train_step_ms);
    json.Field("train_step_speedup",
               base.train_step_ms / kernel_rows[i].train_step_ms);
    json.EndObject();
  }
  json.EndArray();
  json.BeginArray("classifier_training");
  for (const TrainRow& row : rows) {
    const double median = Quantile(row.seconds, 0.5);
    json.BeginObject();
    json.Field("num_threads", row.num_threads);
    json.Field("trainer", TrainerName(row.num_threads));
    json.Field("seconds_median", median);
    json.Field("seconds_q1", Quantile(row.seconds, 0.25));
    json.Field("seconds_q3", Quantile(row.seconds, 0.75));
    json.Field("seconds_min", Quantile(row.seconds, 0.0));
    json.Field("seconds_max", Quantile(row.seconds, 1.0));
    json.Field("speedup_vs_serial", serial_median / median);
    json.Field("final_loss", row.final_loss);
    json.EndObject();
  }
  json.EndArray();
  json.Field("deterministic_across_thread_counts", deterministic);
  json.EndObject();
  if (json.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", json_path.c_str());
  }
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) { return hap::bench::Main(argc, argv); }
