// Shared by the serve_replay workload and its loopback drive of
// hap_served.
#ifndef PERFBENCH_RUNNER_SERVE_H_
#define PERFBENCH_RUNNER_SERVE_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/featurize.h"
#include "serve/served_model.h"
#include "workloads.h"

namespace perfbench {

// Request pool: PROTEINS-like graphs (about 27 nodes each), drawn
// uniformly. 4096 distinct graphs against the serving layer's 256-entry
// graph cache make about 94% of requests cache misses.
inline constexpr int kPoolGraphs = 4096;
inline constexpr int kServedLanes = 16;     // hap_served's default (= max_batch)
inline constexpr int kCacheCapacity = 256;  // hap_served's default

struct ServeInputs {
  hap::FeatureSpec spec;
  int num_classes = 0;
  std::vector<std::string> payloads;  // wire text of each pool graph
  std::vector<int> reference;         // ServedModel::Predict of each
  std::string checkpoint;
};

/// Corpus, checkpoint and reference predictions, made from the run seed
/// before any clock starts.
ServeInputs MakeServeInputs(const RunConfig& config);

/// Loads the checkpoint the way hap_served does (HAP, hidden 32, fp32,
/// dense coarsening) with `lanes` model replicas.
std::shared_ptr<const hap::serve::ServedModel> LoadServed(
    const ServeInputs& in, int lanes);

/// The request stream: pool indices drawn uniformly, fixed by `seed`.
class RequestStream {
 public:
  explicit RequestStream(uint64_t seed) : rng_(seed) {}
  int Next() { return rng_.UniformInt(kPoolGraphs); }

 private:
  hap::Rng rng_;
};

/// Drives the built hap_served over loopback for `seconds` with the
/// workload's request stream (one client, two connections, 16 frames in
/// flight on each), checks every answer, and sets the per-layer metrics
/// only the daemon can show: the wire gap, the engine's stages, batching
/// and coalescing, frames, protocol errors and sheds.
void DriveDaemon(const RunConfig& config, const ServeInputs& in,
                 SpanRecorder* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_SERVE_H_
