// embed_large: HierarchicalEmbedder::EmbedLevels in eval mode on one
// seeded sparse Erdős–Rényi graph with a CSR-native GraphLevel. It is the
// only workload on the CSR/top-k path (fused MᵀAM, TopKMaskRows, CSR
// propagation) and the only one that reaches the dense O(N·N′) MOA
// logits.
#include <cmath>
#include <cstring>
#include <memory>

#include "core/hap_model.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "pace.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

// 10 000 nodes keep the CSR/top-k path and the dense O(N·N′) MOA logits
// while a 30 s run still holds about five blocks of 100 forwards: at
// 20 000 nodes a forward took ~120 ms, a run held three blocks, and its
// p90 spread by 30% between runs on a shared machine.
constexpr int kNodes = 10000;
constexpr double kAverageDegree = 8.0;
constexpr int kFeatures = 16;
constexpr int kTopk = 4;
constexpr int kSetups = 5;
// Set-up ends with a fixed number of forwards: the level's and model's
// lazy state is filled by then, and a set-up of a few milliseconds
// alone would be mostly jitter.
constexpr int kWarmupForwards = 3;
constexpr int kReplayRepeats = 5;
// Latency percentiles are taken over blocks of 100 consecutive forwards.
// Every forward does the same work, so the blocks repeat one sequence of
// operations, and the percentiles are taken over each position's fastest
// repeat (BlockwiseMin; p90 then has ten beyond it). Over eight seeded
// runs the p90's spread (quartile distance / median) was 4.6% this way,
// against 19% over each position's median repeat and 36% over all
// forwards. A run holds at least three blocks.
constexpr size_t kLatencyBlock = 100;
constexpr size_t kMinLatencyBlocks = 3;

bool BitEqual(const std::vector<hap::Tensor>& a,
              const std::vector<hap::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
        std::memcmp(a[i].data(), b[i].data(),
                    static_cast<size_t>(a[i].size()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool AllFinite(const std::vector<hap::Tensor>& levels) {
  for (const hap::Tensor& t : levels) {
    for (int64_t i = 0; i < t.size(); ++i) {
      if (!std::isfinite(t.data()[i])) return false;
    }
  }
  return true;
}

}  // namespace

void RunEmbedLarge(const RunConfig& config, Report* report,
                   SpanRecorder* spans) {
  hap::Rng rng(MixSeed(config.seed, 1));
  const hap::CsrMatrix csr = hap::SparseErdosRenyiCsr(
      kNodes, kAverageDegree / (kNodes - 1), &rng);
  const hap::Tensor features = hap::Tensor::Randn(kNodes, kFeatures, &rng);
  const uint64_t model_seed = MixSeed(config.seed, 2);
  hap::HapConfig model_config;
  model_config.feature_dim = kFeatures;
  model_config.hidden_dim = kHidden;
  model_config.cluster_sizes = {32, 8};
  hap::NoGradGuard no_grad;

  // Set-up: GraphLevel construction and WarmCaches, model construction,
  // and the warm-up forwards.
  hap::GraphLevel level;
  std::unique_ptr<hap::HierarchicalEmbedder> model;
  std::vector<hap::Tensor> reference;
  // The run's times are turned into reference seconds at its end
  // (pace.h).
  Pace pace;
  Intervals setups;
  for (int k = 0; k < kSetups; ++k) {
    level = hap::GraphLevel();
    model.reset();
    pace.Sampled(&setups, [&] {
      ScopedSpan setup(spans, "embed.setup", -1, k);
      {
        ScopedSpan s(spans, "graph.LevelWarm", setup.index(), k);
        level = hap::GraphLevel(csr);
        level.WarmCaches();
      }
      {
        ScopedSpan s(spans, "embed.BuildModel", setup.index(), k);
        hap::Rng model_rng(model_seed);
        model = hap::MakeHapModel(model_config, &model_rng);
        model->set_coarsen_mode(hap::CoarsenMode::kTopkSparse, kTopk);
        model->set_training(false);
      }
      for (int w = 0; w < kWarmupForwards; ++w) {
        ScopedSpan s(spans, "embed.WarmupForward", setup.index(), k);
        std::vector<hap::Tensor> out = model->EmbedLevels(features, level);
        if (w == 0) reference = std::move(out);
      }
    });
  }
  Require(AllFinite(reference), "every forward is finite",
          "first warm-up forward");

  // Timed forwards. The traced run's second half runs with the
  // program's metrics on and a span per forward.
  SpanRecorder no_spans(false);
  Intervals forwards[2];  // untraced, traced
  double traced_s = 0.0;
  Scrape before;
  bool tracing = false;
  const double start = NowS();
  for (int64_t n = 0;
       NowS() < start + config.seconds ||
       (config.trace ? forwards[1].size() == 0
                     : forwards[0].size() < kMinLatencyBlocks * kLatencyBlock);
       ++n) {
    if (config.trace && !tracing && NowS() >= start + config.seconds / 2) {
      hap::obs::SetMetricsEnabled(true);
      before = ScrapeSelf();
      tracing = true;
    }
    pace.MaybeProbe();
    const double t0 = NowS();
    std::vector<hap::Tensor> out;
    {
      ScopedSpan s(tracing ? spans : &no_spans, "core.EmbedLevels", -1, n);
      out = model->EmbedLevels(features, level);
    }
    const double t1 = NowS();
    Require(AllFinite(out), "every forward is finite",
            "forward " + std::to_string(n));
    Require(BitEqual(out, reference),
            "every forward is bit-equal to the first warm-up forward",
            "forward " + std::to_string(n));
    forwards[tracing ? 1 : 0].Add(t0, t1 - t0);
    if (tracing) traced_s += t1 - t0;
  }
  Window window;
  if (tracing) {
    window = Window(before, ScrapeSelf());
    hap::obs::SetMetricsEnabled(false);
  }
  report->attempted =
      static_cast<int64_t>(forwards[0].size() + forwards[1].size());
  std::vector<double> latency_ms[2];
  for (int traced = 0; traced < 2; ++traced) {
    for (double s : forwards[traced].Scaled(pace)) {
      latency_ms[traced].push_back(s * 1e3);
    }
  }
  report->failed = 0;
  // Forwards run one after another, so forwards per second is the inverse
  // of the forward time; the median forward keeps a stall of the host
  // shorter than half the run out of it.
  const double untraced_per_s = 1e3 / Median(latency_ms[0]);

  if (!config.trace) {
    report->Set("setup_s", Median(setups.Scaled(pace)));
    report->Set("throughput_per_s", untraced_per_s);
    for (const auto& [name, q] :
         {std::pair{"latency_p50_ms", 0.5}, std::pair{"latency_p90_ms", 0.9}}) {
      hap::StatusOr<double> v =
          SupportedQuantile(BlockwiseMin(latency_ms[0], kLatencyBlock), q);
      Require(v.ok(), "latency percentile sample floor", v.status().ToString());
      report->Set(name, v.value());
    }
    hap::StatusOr<double> rss = ReadVmHwmMb(0);
    Require(rss.ok(), "benchmark VmHWM", rss.status().ToString());
    report->Set("peak_rss_mb", rss.value());
    // Every forward above was finite and bit-equal to the reference; a
    // failure would have ended the run.
    report->Set("ok_share", 1.0);
    PrintPace(pace);
    return;
  }

  report->Set("obs.trace_overhead_share",
              TraceOverhead(1e3 / Median(latency_ms[1]), untraced_per_s));
  const auto traced = static_cast<double>(latency_ms[1].size());
  report->Set("core.embed_levels_ms",
              spans->TotalUs("core.EmbedLevels", traced) / 1e3);
  report->Set("graph.level_warm_ms",
              Median(spans->DurationsNs("graph.LevelWarm")) / 1e6);
  SetCounterLayers(window, traced_s, traced, report);
  ReplayCoreLayers(*model, kFeatures, {{features, level}}, kReplayRepeats,
                   /*embed_levels=*/false, spans, report);
  SetUnreached(report,
               {"server.wire_p50_us", "server.parse_us", "server.frames",
                "server.protocol_errors", "graph_cache.hit_share",
                "graph_cache.key_us", "graph_cache.miss_prepare_us",
                "admission.shed", "engine.queue_wait_p50_us",
                "engine.dispatch_p50_us", "engine.forward_p50_us",
                "engine.resolve_p50_us", "engine.batch_size_mean",
                "engine.coalesce_ratio", "served_model.load_ms",
                "served_model.predict_us", "served_model.predict_batched_us",
                "graph.prepare_dataset_ms", "train.forward_ms",
                "train.backward_ms", "train.adam_ms", "train.eval_ms"});
}

}  // namespace perfbench
