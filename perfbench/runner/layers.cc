#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "core/coarsening.h"
#include "gnn/encoder.h"
#include "obs/metric_names.h"
#include "workloads.h"

namespace perfbench {

namespace names = hap::obs::names;

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  hap::Rng rng(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull);
  return rng.NextU64();
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetCounterLayers(const Window& w, double window_s, double forwards,
                      Report* report) {
  const double window_ns = window_s * 1e9;
  report->Set("core.coarsen_us_per_call",
              Ratio(w.Sum(names::kCoarsenNs) / 1e3,
                    w.Counter(names::kCoarsenCalls)));
  const double kept = w.Counter(names::kCoarsenTopkKept);
  report->Set("core.topk_kept_share",
              Ratio(kept, kept + w.Counter(names::kCoarsenTopkDropped)));
  const double level_hit = w.Counter(names::kGraphCacheHit);
  report->Set("graph_level.cache_hit_share",
              Ratio(level_hit, level_hit + w.Counter(names::kGraphCacheMiss)));
  report->Set("tensor.matmul_gflops", Ratio(w.Counter(names::kMatMulFlops),
                                            w.Sum(names::kMatMulNs)));
  report->Set("tensor.matmul_share", Ratio(w.Sum(names::kMatMulNs), window_ns));
  const double naive = w.Counter(names::kMatMulDispatchNaive);
  report->Set("tensor.matmul_naive_share",
              Ratio(naive, naive + w.Counter(names::kMatMulDispatchBlocked)));
  report->Set("tensor.spmatmul_ms",
              Ratio(w.Sum(names::kSpMatMulNs) / 1e6, forwards));
  report->Set("tensor.csrcoarsen_ms",
              Ratio(w.Sum(names::kCsrCoarsenNs) / 1e6, forwards));
  const double pool_hit = w.Counter(names::kMemPoolHit);
  report->Set("tensor.arena_hit_share",
              Ratio(pool_hit, pool_hit + w.Counter(names::kMemPoolMiss)));
  report->Set("tensor.arena_mb", w.Gauge(names::kMemPoolBytes) / (1 << 20));
  report->Set("threadpool.busy_share", Ratio(w.Counter(names::kPoolBusyNs),
                                             window_ns * kPoolThreads));
  report->Set("threadpool.queue_wait_p50_us",
              w.HistogramQuantile(names::kPoolQueueWaitNs, 0.5) / 1e3);
}

void PrintPace(const Pace& pace) {
  std::printf("pace: reference pass %.4f ms (median of %zu probes); times "
              "are in reference seconds of %.4f ms per pass\n",
              pace.MedianProbeS() * 1e3, pace.probes(), Pace::kNominalS * 1e3);
}

void SetUnreached(Report* report,
                  std::initializer_list<const char*> metrics) {
  for (const char* name : metrics) report->Set(name, 0.0);
}

void ReplayCoreLayers(
    const hap::HierarchicalEmbedder& model, int feature_dim,
    const std::vector<std::pair<hap::Tensor, hap::GraphLevel>>& inputs,
    int repeats, bool embed_levels, SpanRecorder* spans, Report* report) {
  // A stage-0 encoder of the model's shape (MakeHapModel: two GCN layers
  // feature_dim -> hidden -> hidden); its weights do not change its cost.
  hap::Rng rng(17);
  hap::GnnEncoder encoder(hap::EncoderKind::kGcn,
                          {feature_dim, kHidden, kHidden}, &rng);
  const auto* coarsener =
      dynamic_cast<const hap::CoarseningModule*>(&model.coarsener(0));
  if (coarsener == nullptr) {
    throw std::logic_error("level-0 coarsener is not a CoarseningModule");
  }
  hap::NoGradGuard no_grad;
  uint64_t id = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& [h, level] : inputs) {
      ScopedSpan parent(spans, "replay.layers", -1, id);
      hap::Tensor h0;
      {
        ScopedSpan s(spans, "gnn.GnnEncoder::Forward", parent.index(), id);
        h0 = encoder.Forward(h, level);
      }
      hap::Tensor c;
      {
        ScopedSpan s(spans, "core.ComputeGCont", parent.index(), id);
        c = coarsener->ComputeGCont(h0);
      }
      {
        ScopedSpan s(spans, "core.ComputeAttention", parent.index(), id);
        coarsener->ComputeAttention(c);
      }
      if (embed_levels) {
        ScopedSpan s(spans, "core.EmbedLevels", parent.index(), id);
        model.EmbedLevels(h, level);
      }
      ++id;
    }
  }
  const auto calls = static_cast<double>(id);
  report->Set("gnn.encoder_us", spans->TotalUs("gnn.GnnEncoder::Forward", calls));
  report->Set("core.gcont_us", spans->TotalUs("core.ComputeGCont", calls));
  report->Set("core.moa_us", spans->TotalUs("core.ComputeAttention", calls));
  if (embed_levels) {
    report->Set("core.embed_levels_ms",
                spans->TotalUs("core.EmbedLevels", calls) / 1e3);
  }
}

double TraceOverhead(double traced_per_s, double untraced_per_s) {
  return 1.0 - Ratio(traced_per_s, untraced_per_s);
}

}  // namespace perfbench
