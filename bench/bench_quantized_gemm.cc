// Reduced-precision GEMM benchmark (docs/PERFORMANCE.md "Reduced-
// precision inference"): two measurements in one JSON.
//
// Part A — per-shape kernel sweep. Times MatMul at fp32 and int8
// (dynamic activation quantization, the worst case for int8) across
// shapes from "too small to bother" to the serving hot path's A·H
// propagation shape. Small shapes are included deliberately: below the
// ShapeWantsInt8 threshold the int8 scope falls through to the fp32
// kernel, and the sweep documents that the threshold is placed where
// quantize+pack overhead would otherwise lose to the blocked fp32 GEMM.
//
// Part B — end-to-end serving. Trains a small 2-class classifier on a
// corpus of ~256-node graphs (large enough that the dense A·H and X·W
// GEMMs dominate the forward), checkpoints it, then serves the same
// closed-loop request stream through an InferenceEngine at each
// precision. The precisions alternate replay by replay (which one goes
// first alternates too), so drift on a shared host lands on both, and
// each reports the median and quartiles of its replays' throughput; the
// end-to-end speedup is the ratio of the medians. int8 calibrates
// activation absmax from a held-out slice at model load, exactly as
// hap_serve/hap_served do. Alongside throughput
// the run measures the accuracy-parity gates the ISSUE requires:
//  * classification agreement: fraction of stream requests whose argmax
//    prediction matches the fp32 engine's (gate: >= 0.99);
//  * similarity-ranking Kendall tau (gate: >= 0.98): rank the pool by
//    embedding distance to a query graph at each precision and compare
//    the ordering against fp32's — quantization must preserve retrieval
//    *order*, not just argmax. Distances between structurally diverse
//    graphs spread over a wide range, so the gate measures quantization
//    error rather than the trained head's deliberate within-class
//    margin collapse.
//
// The process exits non-zero when an accuracy gate fails (numeric
// contract, machine-independent). Speedups are recorded, not gated, at
// runtime; scripts/check.sh gates the committed JSON's end-to-end
// int8-vs-fp32 speedup instead, so a slow CI box cannot mask a
// regression baked into the committed numbers.
//
// Emits BENCH_quantized_gemm.json (path overridable as argv[1]).
// Set HAP_BENCH_FAST=1 for a quick smoke run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "tensor/matmul_kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/serialize.h"
#include "train/classifier.h"
#include "train/prepared.h"

namespace hap::bench {
namespace {

using serve::EngineConfig;
using serve::InferenceEngine;
using serve::ServedModel;
using serve::ServedModelConfig;

// ---------------------------------------------------------------------------
// Part A: kernel sweep.
// ---------------------------------------------------------------------------

/// Best-of-`reps` nanoseconds per MatMul of a(m,k) x b(k,n) under the
/// given precision scope (dynamic quantization: no scale store).
double TimeMatMulNs(const Tensor& a, const Tensor& b, Precision precision,
                    int iters, int reps) {
  NoGradGuard eval;
  PrecisionScope scope(precision);
  (void)MatMul(a, b);  // warm caches and thread-local scratch
  double best_ns = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) (void)MatMul(a, b);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      iters;
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

// ---------------------------------------------------------------------------
// Part B: end-to-end serving.
// ---------------------------------------------------------------------------

/// Serving corpus: 2 classes (homogeneous random vs hub-dominated
/// preferential attachment at fixed per-class density), degree one-hot
/// features, node counts on a geometric ladder bracketing the sweep's
/// acceptance shape. Every graph gets a UNIQUE size: the paper's
/// eval-time soft sampling (softmax(log A'/tau), tau = 0.1) amplifies
/// small numeric perturbations ~1/tau-fold per level, so a meaningful
/// rank-stability gate needs pairwise embedding-distance gaps that dwarf
/// that amplified noise. A pure size ladder at fixed density makes
/// within-family distances monotone with ~12% gaps between rank
/// neighbours; near-duplicate graphs would measure softmax chaos, not
/// quantization error.
GraphDataset MakeServeCorpus(int num_graphs, Rng* rng) {
  GraphDataset ds;
  ds.name = "quantbench";
  ds.num_classes = 2;
  ds.feature_spec = {FeatureKind::kDegreeOneHot, 32, 0};
  ds.graphs.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int label = i % 2;
    // Geometric size ladder: every graph unique, ~6% gap to its rank
    // neighbours, bracketing the sweep's acceptance shape.
    const int n = static_cast<int>(std::lround(120.0 * std::pow(1.06, i)));
    Graph g = label == 0 ? ConnectedErdosRenyi(n, 0.02, rng)
                         : BarabasiAlbert(n, 4, rng);
    g.set_label(label);
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

struct ServeRun {
  double wall_ms = 0.0;
  double qps = 0.0;
  double agreement = 1.0;  // stream-weighted argmax match vs fp32
};

// Linear-interpolated quantile q in [0, 1] of `values` (non-empty).
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Replays `stream` (indices into `prepared`) through one engine and
/// scores each prediction against the fp32 per-graph reference.
ServeRun RunServeLoop(const std::shared_ptr<const ServedModel>& model,
                      const EngineConfig& config,
                      const std::vector<PreparedGraph>& prepared,
                      const std::vector<int>& stream,
                      const std::vector<int>& fp32_reference) {
  InferenceEngine engine(model, config);
  std::vector<std::future<int>> futures;
  futures.reserve(stream.size());
  const auto start = std::chrono::steady_clock::now();
  for (int graph : stream) {
    while (true) {
      StatusOr<std::future<int>> result = engine.Submit(prepared[graph]);
      if (result.ok()) {
        futures.push_back(std::move(result.value()));
        break;
      }
      std::this_thread::yield();  // backpressure: retry until admitted
    }
  }
  size_t matches = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].get() == fp32_reference[stream[i]]) ++matches;
  }
  ServeRun run;
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  engine.Shutdown();
  run.qps = static_cast<double>(stream.size()) / (run.wall_ms / 1000.0);
  run.agreement =
      static_cast<double>(matches) / static_cast<double>(stream.size());
  return run;
}

/// Kendall tau-a over paired score vectors: (concordant - discordant) /
/// all pairs. 1.0 means the reduced-precision scores rank the pool in
/// exactly the fp32 order.
double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = a.size();
  long long concordant = 0, discordant = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double prod = (a[i] - a[j]) * (b[i] - b[j]);
      if (prod > 0) ++concordant;
      if (prod < 0) ++discordant;
    }
  }
  const double pairs = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n - 1);
  return pairs > 0 ? static_cast<double>(concordant - discordant) / pairs
                   : 1.0;
}

/// Similarity scores for the ranking gate: negative L2 distance from each
/// pool graph's final embedding to pool graph 0's (the retrieval query),
/// under `precision` with the serving model's calibrated scales rebound
/// to `scorer`'s own weights. Embed() does not install NoGradGuard
/// itself, so the guard here is what keeps the quantized kernels off the
/// tape. Only the query's own family (even indices — same generator,
/// ascending sizes) is ranked: within-family distances grow monotonically
/// with structural gap, so the fp32 reference ordering has wide margins
/// and the gate measures quantization error. Cross-family distances all
/// saturate at the far plateau, where ordering is near-tied noise for
/// ANY numeric scheme. Index 0 (the query itself) is excluded.
std::vector<double> SimilarityScores(const GraphClassifier& scorer,
                                     const std::vector<PreparedGraph>& prepared,
                                     Precision precision,
                                     const QuantScales* scales) {
  NoGradGuard eval;
  PrecisionScope scope(precision, scales);
  const Tensor query = scorer.Embed(prepared[0]);
  std::vector<double> scores;
  scores.reserve(prepared.size() / 2);
  for (size_t i = 2; i < prepared.size(); i += 2) {
    const Tensor emb = scorer.Embed(prepared[i]);
    double d2 = 0.0;
    for (int64_t c = 0; c < emb.cols(); ++c) {
      const double diff = static_cast<double>(emb.At(0, c)) -
                          static_cast<double>(query.At(0, c));
      d2 += diff * diff;
    }
    scores.push_back(-std::sqrt(d2));
  }
  return scores;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) {
  using namespace hap;
  using namespace hap::bench;

  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_quantized_gemm.json";
  SetNumThreads(1);  // single-thread: the comparison is about kernels

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("quantized_gemm"));

  // ---- Part A: per-shape kernel sweep -----------------------------------
  struct Shape {
    int m, k, n;
  };
  const std::vector<Shape> shapes = {
      {32, 32, 32},    {64, 64, 64},    {128, 64, 64},
      {256, 64, 64},   {256, 256, 64},  {256, 256, 256},
  };
  const Shape acceptance = {256, 256, 64};  // the A·H propagation shape
  const int sweep_reps = FastOr(2, 5);
  double acceptance_speedup = 0.0;

  Rng sweep_rng(13);
  json.BeginArray("kernel_sweep");
  std::printf("kernel sweep (ns per MatMul, best of %d):\n", sweep_reps);
  for (const Shape& s : shapes) {
    const Tensor a = Tensor::Randn(s.m, s.k, &sweep_rng);
    const Tensor b = Tensor::Randn(s.k, s.n, &sweep_rng);
    const double flops = 2.0 * s.m * s.k * s.n;
    const double flop_budget = FastOr(4'000'000, 20'000'000);
    const int iters = std::max(1, static_cast<int>(flop_budget / flops));
    const double fp32_ns =
        TimeMatMulNs(a, b, Precision::kFp32, iters, sweep_reps);
    const double int8_ns =
        TimeMatMulNs(a, b, Precision::kInt8, iters, sweep_reps);
    const bool eligible = kernels::ShapeWantsInt8(s.m, s.k, s.n);
    const double int8_speedup = fp32_ns / int8_ns;
    if (s.m == acceptance.m && s.k == acceptance.k && s.n == acceptance.n) {
      acceptance_speedup = int8_speedup;
    }
    std::printf(
        "  %3dx%3dx%3d : fp32 %9.0f  int8 %9.0f  (int8 %.2fx%s)\n",
        s.m, s.k, s.n, fp32_ns, int8_ns, int8_speedup,
        eligible ? "" : ", below int8 threshold");
    json.BeginObject();
    json.Field("m", s.m);
    json.Field("k", s.k);
    json.Field("n", s.n);
    json.Field("int8_eligible", eligible);
    json.Field("fp32_ns", fp32_ns);
    json.Field("int8_ns", int8_ns);
    json.Field("speedup_int8_vs_fp32", int8_speedup);
    json.EndObject();
  }
  json.EndArray();
  json.Field("kernel_speedup_int8_acceptance_shape", acceptance_speedup);

  // ---- Part B: end-to-end serving ---------------------------------------
  // Corpus + a briefly trained model: training widens the logit margins so
  // the agreement gate measures quantization error, not coin flips on an
  // untrained model's near-tied logits.
  const int pool_size = FastOr(12, 24);
  const int requests = FastOr(48, 240);
  const int serve_reps = FastOr(3, 11);
  Rng rng(11);
  GraphDataset dataset = MakeServeCorpus(pool_size, &rng);
  std::vector<PreparedGraph> prepared = PrepareDataset(dataset);
  ServedModelConfig model_config;
  model_config.method = "HAP";
  model_config.feature_dim = dataset.feature_spec.FeatureDim();
  model_config.hidden = 64;
  model_config.num_classes = dataset.num_classes;
  model_config.lanes = 8;
  const std::string checkpoint = "bench_quant_ckpt.tmp";
  {
    Rng init(5);
    GraphClassifier writer(
        MakeEmbedderByName(model_config.method, model_config.feature_dim,
                           model_config.hidden, &init),
        model_config.num_classes, model_config.hidden, &init);
    TrainConfig train_config;
    // Enough training to widen the head's decision margins (the
    // agreement gate is then non-trivial), stopped well before the MOA
    // attention sharpens into a quasi-hard assignment — a sharply
    // trained HAP checkpoint flips cluster assignments under ANY small
    // perturbation (see the eval-time soft-sampling note above), which
    // would measure architecture chaos rather than quantization error.
    train_config.epochs = FastOr(2, 3);
    train_config.patience = 0;
    train_config.seed = 17;
    Rng split_rng(3);
    const Split split =
        SplitIndices(static_cast<int>(prepared.size()), &split_rng);
    std::printf("training margin model (%d epochs)...\n",
                train_config.epochs);
    (void)TrainClassifier(&writer, prepared, split, train_config);
    if (!SaveModule(writer, checkpoint).ok()) {
      std::fprintf(stderr, "cannot write %s\n", checkpoint.c_str());
      return 1;
    }
  }

  // Uniform request stream over the pool: every graph's margin counts.
  std::vector<int> stream;
  stream.reserve(requests);
  Rng traffic(29);
  for (int i = 0; i < requests; ++i) {
    stream.push_back(static_cast<int>(traffic.Uniform() * pool_size));
  }

  json.Field("pool_graphs", pool_size);
  json.Field("requests", requests);
  json.Field("hidden", model_config.hidden);

  // Scorer replica for the Kendall-tau similarity rankings (same
  // checkpoint).
  Rng scorer_init(5);
  GraphClassifier scorer(
      MakeEmbedderByName(model_config.method, model_config.feature_dim,
                         model_config.hidden, &scorer_init),
      model_config.num_classes, model_config.hidden, &scorer_init);
  if (!LoadModule(&scorer, checkpoint).ok()) {
    std::fprintf(stderr, "cannot reload %s\n", checkpoint.c_str());
    return 1;
  }
  const std::vector<double> fp32_scores =
      SimilarityScores(scorer, prepared, Precision::kFp32, nullptr);
  if (std::getenv("HAP_BENCH_DEBUG") != nullptr) {
    for (size_t i = 0; i < fp32_scores.size(); ++i) {
      std::fprintf(stderr, "score[%zu]  %+.6f\n", 2 * (i + 1),
                   fp32_scores[i]);
    }
  }

  bool gates_pass = true;
  const Precision precisions[] = {Precision::kFp32, Precision::kInt8};
  std::shared_ptr<const ServedModel> models[2];
  std::vector<int> fp32_reference;
  for (int p = 0; p < 2; ++p) {
    ServedModelConfig config = model_config;
    config.precision = precisions[p];
    if (precisions[p] == Precision::kInt8) {
      // Held-out calibration slice, as hap_serve wires it. Strided
      // across the pool so the observed activation ranges span the size
      // ladder — calibrating on the smallest graphs only would clip the
      // largest graphs' activations (absmax grows with node count).
      const size_t stride = std::max<size_t>(1, prepared.size() / 8);
      for (size_t i = 0; i < prepared.size(); i += stride) {
        config.calibration_graphs.push_back(prepared[i]);
      }
    }
    auto model = ServedModel::Load(config, checkpoint);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    models[p] = model.value();
  }
  // Direct per-graph fp32 forwards: the agreement reference.
  fp32_reference.reserve(prepared.size());
  for (const PreparedGraph& g : prepared) {
    fp32_reference.push_back(models[0]->Predict(g, 0));
  }
  EngineConfig engine_config;
  engine_config.max_batch = 8;
  engine_config.max_delay_us = 200;
  // Untimed warm-up pass per precision: the first loop per process pays
  // scratch growth and page faults.
  for (int p = 0; p < 2; ++p) {
    RunServeLoop(models[p], engine_config, prepared, stream, fp32_reference);
  }
  std::vector<double> qps[2];
  double agreement[2] = {1.0, 1.0};
  for (int rep = 0; rep < serve_reps; ++rep) {
    for (int slot = 0; slot < 2; ++slot) {
      const int p = rep % 2 == 0 ? slot : 1 - slot;
      const ServeRun run = RunServeLoop(models[p], engine_config, prepared,
                                        stream, fp32_reference);
      qps[p].push_back(run.qps);
      agreement[p] = std::min(agreement[p], run.agreement);
    }
  }
  double median_qps[2] = {0.0, 0.0};
  json.Field("serve_replays", serve_reps);
  json.BeginArray("serve");
  for (int p = 0; p < 2; ++p) {
    const Precision precision = precisions[p];
    median_qps[p] = Quantile(qps[p], 0.5);
    const double q1 = Quantile(qps[p], 0.25), q3 = Quantile(qps[p], 0.75);
    QuantScales scorer_scales;
    if (precision == Precision::kInt8) {
      // Rebind the serving model's calibrated entries to the scorer
      // replica's own weight tensors.
      scorer_scales = QuantScales::Build(models[p]->scale_entries(),
                                         scorer.Parameters());
    }
    const std::vector<double> scores =
        precision == Precision::kFp32
            ? fp32_scores
            : SimilarityScores(scorer, prepared, precision, &scorer_scales);
    const double tau = KendallTau(fp32_scores, scores);
    if (std::getenv("HAP_BENCH_DEBUG") != nullptr &&
        precision != Precision::kFp32) {
      for (size_t i = 0; i < scores.size(); ++i) {
        std::fprintf(stderr, "%s score[%zu]  %+.6f (fp32 %+.6f)\n",
                     PrecisionName(precision), 2 * (i + 1), scores[i],
                     fp32_scores[i]);
      }
    }
    const bool agreement_ok = agreement[p] >= 0.99;
    const bool tau_ok = tau >= 0.98;
    gates_pass = gates_pass && agreement_ok && tau_ok;
    std::printf(
        "serve %-4s : %7.1f req/s (quartiles %.1f-%.1f, %d replays)  "
        "agreement %.4f  kendall_tau %.4f%s\n",
        PrecisionName(precision), median_qps[p], q1, q3, serve_reps,
        agreement[p], tau, agreement_ok && tau_ok ? "" : "  GATE FAILED");
    json.BeginObject();
    json.Field("precision", std::string(PrecisionName(precision)));
    json.Field("wall_ms", 1000.0 * requests / median_qps[p]);
    json.Field("throughput_qps", median_qps[p]);
    json.Field("throughput_qps_q1", q1);
    json.Field("throughput_qps_q3", q3);
    json.Field("agreement_vs_fp32", agreement[p]);
    json.Field("kendall_tau_vs_fp32", tau);
    json.EndObject();
  }
  json.EndArray();

  const double qps_fp32 = median_qps[0], qps_int8 = median_qps[1];
  const double e2e_speedup = qps_fp32 > 0.0 ? qps_int8 / qps_fp32 : 0.0;
  json.Field("e2e_speedup_int8_vs_fp32", e2e_speedup);
  json.Field("meets_1p5x_e2e", e2e_speedup >= 1.5);
  json.Field("accuracy_gates_pass", gates_pass);
  json.EndObject();
  std::printf("end-to-end int8 speedup: %.2fx  %s\n", e2e_speedup,
              gates_pass ? "" : "ACCURACY GATE FAILED");
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("-> %s\n", out_path.c_str());
  std::remove(checkpoint.c_str());
  return gates_pass ? 0 : 1;
}
