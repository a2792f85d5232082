// Microbench for the blocked GEMM micro-kernels (forward, dA, dB) that
// MatMul runs at every shape, against the naive reference kernels, plus the
// arena's effect on a training-step loop and the cost of the hot-path
// instrumentation.
//
// Both kernel families are called directly on one thread; the blocked
// side's time includes packing B (or Bᵀ), as in MatMul. Acceptance target
// (docs/PERFORMANCE.md): >= 3x on the forward GEMM at N=256, F=64 with
// bit-identical results. Rows flagged `old_rule_naive` are small shapes
// that MatMul's former shape rule (m >= 8, n >= 8, k >= 4,
// 2mkn >= 16384) sent to the naive loops; their ratios are reported, not
// gated. Emits BENCH_matmul_kernels.json (path overridable as argv[1]) so
// the perf trajectory is tracked across PRs. Set HAP_BENCH_FAST=1 for a
// quick smoke run.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "tensor/arena.h"
#include "tensor/matmul_kernels.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace hap::bench {
namespace {

// Median over `repeats` of the wall time of `iters` back-to-back calls,
// divided by `iters`: per-call milliseconds.
template <typename Fn>
double TimeMs(int repeats, int64_t iters, Fn&& fn) {
  std::vector<double> times;
  times.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() *
        1000.0 / static_cast<double>(iters));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::vector<float> RandomValues(int64_t count, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(count));
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

Tensor RandomTensor(int rows, int cols, Rng* rng) {
  return Tensor::FromVector(rows, cols,
                            RandomValues(int64_t{rows} * cols, rng));
}

bool BitIdentical(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

struct GemmRow {
  int m = 0, k = 0, n = 0;
  bool old_rule_naive = false;
  double naive_fwd_ms = 0.0, blocked_fwd_ms = 0.0;
  double naive_bwd_ms = 0.0, blocked_bwd_ms = 0.0;
  double fwd_speedup = 0.0, bwd_speedup = 0.0;
  bool bit_identical = false;
};

// Forward out = A·B and backward dA = G·Bᵀ, dB = Aᵀ·G for a random
// upstream gradient G, each kernel family on zeroed outputs (as MatMul
// hands them over).
GemmRow MeasureGemm(int m, int k, int n, int repeats) {
  Rng rng(0x9E3779B9u ^ (static_cast<uint64_t>(m) * k * n));
  const std::vector<float> a = RandomValues(int64_t{m} * k, &rng);
  const std::vector<float> b = RandomValues(int64_t{k} * n, &rng);
  const std::vector<float> g = RandomValues(int64_t{m} * n, &rng);
  std::vector<float> out(static_cast<size_t>(m) * n);
  std::vector<float> da(a.size()), db(b.size());

  auto naive_fwd = [&] {
    std::fill(out.begin(), out.end(), 0.0f);
    kernels::NaiveForwardRows(a.data(), b.data(), out.data(), k, n, 0, m);
  };
  auto blocked_fwd = [&] {
    std::fill(out.begin(), out.end(), 0.0f);
    const float* packed_b = kernels::PackBPanels(b.data(), k, n);
    kernels::BlockedForwardRows(a.data(), packed_b, b.data(), out.data(), k,
                                n, 0, m);
  };
  auto naive_bwd = [&] {
    std::fill(da.begin(), da.end(), 0.0f);
    std::fill(db.begin(), db.end(), 0.0f);
    kernels::NaiveGradARows(g.data(), b.data(), da.data(), k, n, 0, m);
    kernels::NaiveGradBRows(a.data(), g.data(), db.data(), m, k, n, 0, k);
  };
  auto blocked_bwd = [&] {
    std::fill(da.begin(), da.end(), 0.0f);
    std::fill(db.begin(), db.end(), 0.0f);
    const float* packed_bt = kernels::PackBTransposed(b.data(), k, n);
    kernels::BlockedGradARows(g.data(), packed_bt, b.data(), da.data(), k, n,
                              0, m);
    kernels::BlockedGradBRows(a.data(), g.data(), db.data(), m, k, n, 0, k);
  };

  GemmRow row;
  row.m = m;
  row.k = k;
  row.n = n;
  row.old_rule_naive = m < 8 || n < 8 || k < 4 || 2 * m * k * n < 16384;

  naive_fwd();
  naive_bwd();
  const std::vector<float> naive_out = out, naive_da = da, naive_db = db;
  blocked_fwd();
  blocked_bwd();
  row.bit_identical = BitIdentical(out, naive_out) &&
                      BitIdentical(da, naive_da) && BitIdentical(db, naive_db);

  // Small shapes take well under a microsecond per call; repeat each
  // timed call up to ~2 MFLOP so a sample is not clock granularity.
  const int64_t iters =
      std::max<int64_t>(1, (int64_t{1} << 21) / (int64_t{2} * m * k * n));
  row.naive_fwd_ms = TimeMs(repeats, iters, naive_fwd);
  row.blocked_fwd_ms = TimeMs(repeats, iters, blocked_fwd);
  row.naive_bwd_ms = TimeMs(repeats, iters, naive_bwd);
  row.blocked_bwd_ms = TimeMs(repeats, iters, blocked_bwd);
  row.fwd_speedup = row.naive_fwd_ms / row.blocked_fwd_ms;
  row.bwd_speedup = row.naive_bwd_ms / row.blocked_bwd_ms;
  return row;
}

// A small MLP training step; used to measure the arena's allocation win
// and the instrumentation overhead end to end.
struct StepLoop {
  Rng rng{23};
  Tensor w1, w2;
  std::unique_ptr<Adam> optimizer;

  StepLoop() {
    w1 = Tensor::Xavier(64, 128, &rng);
    w2 = Tensor::Xavier(128, 16, &rng);
    optimizer = std::make_unique<Adam>(std::vector<Tensor>{w1, w2}, 1e-3f);
  }

  void Step() {
    Tensor x = RandomTensor(32, 64, &rng);
    ReduceMeanAll(MatMul(Relu(MatMul(x, w1)), w2)).Backward();
    optimizer->Step();
  }
};

double MeasureStepsMs(int steps, bool use_arena, int repeats) {
  StepLoop loop;
  auto arena = std::make_shared<TensorArena>();
  return TimeMs(repeats, 1, [&] {
    if (use_arena) {
      ArenaScope scope(arena);
      for (int i = 0; i < steps; ++i) {
        loop.Step();
        arena->ResetStep();
      }
    } else {
      for (int i = 0; i < steps; ++i) loop.Step();
    }
  });
}

int Main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_matmul_kernels.json";
  const int repeats = FastOr(5, 15);

  std::printf("CPU AVX2: %s\n", kernels::CpuHasAvx2() ? "yes" : "no");
  std::printf("%6s %6s %6s | %10s %10s %8s | %10s %10s %8s | %s\n", "m", "k",
              "n", "naive fwd", "block fwd", "speedup", "naive bwd",
              "block bwd", "speedup", "bits");

  // N=256, F=64 is the acceptance shape (a pooled graph level's feature
  // transform); the next five sweep embedding-sized shapes up and down.
  // The next seven are small products of per-graph HAP forwards (a
  // readout vector, a few-node level, narrow or shallow operands, a score
  // column) that the former shape rule kept on the naive loops. The last
  // four are the narrow products of HAP training at N' = 8 clusters,
  // which run on the kernels' column, row and depth tails: GCont's
  // C = H·T and dT (27x32x8), MOA's C·G and dG (28x8x8), the first GCN
  // weight of a PROTEINS-like model (28x3x32) and a depth-8 dA (6x8x32).
  const int shapes[][3] = {
      {256, 64, 64}, {256, 256, 64}, {128, 64, 64}, {64, 64, 64},
      {512, 64, 128}, {32, 64, 16},  {1, 32, 32},   {4, 32, 32},
      {7, 64, 64},   {32, 8, 8},     {16, 3, 33},   {1, 64, 2},
      {24, 32, 1},   {27, 32, 8},    {28, 8, 8},    {28, 3, 32},
      {6, 8, 32},
  };

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("matmul_kernels"));
  json.Field("avx2", kernels::CpuHasAvx2());
  json.BeginArray("gemm");
  bool all_bits = true;
  double accept_speedup = 0.0;
  for (const auto& s : shapes) {
    const GemmRow row = MeasureGemm(s[0], s[1], s[2], repeats);
    all_bits = all_bits && row.bit_identical;
    if (s[0] == 256 && s[1] == 64 && s[2] == 64) {
      accept_speedup = row.fwd_speedup;
    }
    std::printf(
        "%6d %6d %6d | %8.5fms %8.5fms %7.2fx | %8.5fms %8.5fms %7.2fx | "
        "%s%s\n",
        row.m, row.k, row.n, row.naive_fwd_ms, row.blocked_fwd_ms,
        row.fwd_speedup, row.naive_bwd_ms, row.blocked_bwd_ms, row.bwd_speedup,
        row.bit_identical ? "identical" : "DIFFER",
        row.old_rule_naive ? " (old rule: naive)" : "");
    json.BeginObject();
    json.Field("m", row.m);
    json.Field("k", row.k);
    json.Field("n", row.n);
    json.Field("old_rule_naive", row.old_rule_naive);
    json.Field("naive_fwd_ms", row.naive_fwd_ms);
    json.Field("blocked_fwd_ms", row.blocked_fwd_ms);
    json.Field("fwd_speedup", row.fwd_speedup);
    json.Field("naive_bwd_ms", row.naive_bwd_ms);
    json.Field("blocked_bwd_ms", row.blocked_bwd_ms);
    json.Field("bwd_speedup", row.bwd_speedup);
    json.Field("bit_identical", row.bit_identical);
    json.EndObject();
  }
  json.EndArray();

  // Arena: same training-step loop with and without a scope installed.
  const int steps = FastOr(10, 50);
  const double heap_ms = MeasureStepsMs(steps, /*use_arena=*/false, repeats);
  const double arena_ms = MeasureStepsMs(steps, /*use_arena=*/true, repeats);
  std::printf("train steps x%d: heap %.3fms arena %.3fms (%.2fx)\n", steps,
              heap_ms, arena_ms, heap_ms / arena_ms);

  // Instrumentation: hot counters off (default) vs on. The delta is the
  // cost of the per-kernel counters; the "off" path is the shipped one.
  obs::SetMetricsEnabled(false);
  const double obs_off_ms = MeasureStepsMs(steps, /*use_arena=*/true, repeats);
  obs::SetMetricsEnabled(true);
  const double obs_on_ms = MeasureStepsMs(steps, /*use_arena=*/true, repeats);
  obs::SetMetricsEnabled(false);
  std::printf("instrumentation: off %.3fms on %.3fms (+%.1f%%)\n", obs_off_ms,
              obs_on_ms, 100.0 * (obs_on_ms - obs_off_ms) / obs_off_ms);

  json.BeginObject("train_steps");
  json.Field("steps", steps);
  json.Field("heap_ms", heap_ms);
  json.Field("arena_ms", arena_ms);
  json.Field("arena_speedup", heap_ms / arena_ms);
  json.EndObject();
  json.BeginObject("instrumentation");
  json.Field("hot_counters_off_ms", obs_off_ms);
  json.Field("hot_counters_on_ms", obs_on_ms);
  json.Field("overhead_pct", 100.0 * (obs_on_ms - obs_off_ms) / obs_off_ms);
  json.EndObject();
  json.Field("accept_shape_fwd_speedup", accept_speedup);
  json.Field("all_bit_identical", all_bits);
  json.EndObject();

  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_bits) {
    std::fprintf(stderr, "FAIL: blocked kernels are not bit-identical\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) { return hap::bench::Main(argc, argv); }
