// The four workloads and the per-layer helpers they share.
#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/embedder.h"
#include "graph/graph_level.h"
#include "pace.h"
#include "report.h"
#include "scrape.h"
#include "spans.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Kernel pool width of the benchmark process. With two threads every
/// parallel kernel waits for a second CPU, and on the shared machine the
/// benchmark was sized on that wait moved the median embed_large forward
/// between 95 and 184 ms from run to run, against 116 to 123 ms with one.
/// (hap_served, driven in serve_replay's traced run, keeps two.)
inline constexpr int kPoolThreads = 1;
/// Hidden width of every model the benchmark runs.
inline constexpr int kHidden = 32;

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string served_binary;  // hap_served built from the checkout
  std::string work_dir;       // run-private work files inside the checkout
};

void RunServeReplay(const RunConfig& config, Report* report,
                    SpanRecorder* spans);
void RunTrainHap(const RunConfig& config, Report* report,
                 SpanRecorder* spans);
void RunEmbedLarge(const RunConfig& config, Report* report,
                   SpanRecorder* spans);

// --- shared helpers ---

/// Independent seed for stream `stream` of run seed `seed`, so that each
/// input (corpus, checkpoint, request stream) is fixed by the run seed
/// alone.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Steady-clock seconds.
double NowS();

/// Sets the per-layer metrics read from the program's own counters over
/// window `w` of `window_s` seconds containing `forwards` graph forwards.
void SetCounterLayers(const Window& w, double window_s, double forwards,
                      Report* report);

/// Sets `metrics` to 0: layers this workload never reaches.
void SetUnreached(Report* report, std::initializer_list<const char*> metrics);

/// Times the table's gnn and core functions on each (features, level)
/// input under spans, `repeats` times: the stage-0 GnnEncoder::Forward,
/// ComputeGCont and ComputeAttention of `model`'s first coarsener, and,
/// when `embed_levels`, HierarchicalEmbedder::EmbedLevels. Sets
/// gnn.encoder_us, core.gcont_us, core.moa_us (and core.embed_levels_ms).
void ReplayCoreLayers(
    const hap::HierarchicalEmbedder& model, int feature_dim,
    const std::vector<std::pair<hap::Tensor, hap::GraphLevel>>& inputs,
    int repeats, bool embed_levels, SpanRecorder* spans, Report* report);

/// Prints the run's host pace on a line of its own (for a reader; the
/// result line stays last).
void PrintPace(const Pace& pace);

/// 1 - traced / untraced throughput.
double TraceOverhead(double traced_per_s, double untraced_per_s);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
