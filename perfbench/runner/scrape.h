// Reads the program's own counters and sketches. hap_served exposes its
// registry as Prometheus text on GET /metrics; in-process workloads
// render their registry with the same exporter (obs::RenderPrometheus),
// so one parser and one set of window formulas serve both.
#ifndef PERFBENCH_RUNNER_SCRAPE_H_
#define PERFBENCH_RUNNER_SCRAPE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One Prometheus text exposition, keyed by Prometheus metric name.
struct Scrape {
  std::map<std::string, double> samples;  // counters, gauges, _sum, _count
  /// Histogram families: (le upper bound, cumulative count), "+Inf"
  /// excluded, in exposition order.
  std::map<std::string, std::vector<std::pair<double, uint64_t>>> buckets;
};

hap::StatusOr<Scrape> ParsePrometheus(const std::string& text);

/// The current process's own registry, through the exporter's renderer.
Scrape ScrapeSelf();

/// Prometheus name of a dotted registry name ("serve.cache.hit" ->
/// "hap_serve_cache_hit"), mirroring the exporter's mapping.
std::string PromName(const std::string& name);

/// The change in the registry between two scrapes: a measurement window.
/// All accessors take dotted registry names (obs/metric_names.h).
class Window {
 public:
  Window() = default;
  Window(const Scrape& before, const Scrape& after);

  /// Adds another window (e.g. two traced phases) to this one.
  void Merge(const Window& other);

  /// Counter increase over the window.
  double Counter(const std::string& name) const;
  /// Gauge value at the end of the window.
  double Gauge(const std::string& name) const;
  /// Histogram/sketch observations and their sum over the window.
  double Count(const std::string& name) const;
  double Sum(const std::string& name) const;
  /// Quantile of a Sketch's observations over the window (the sketch's
  /// own interpolation, <= 2% error); 0 when the window saw none.
  double SketchQuantile(const std::string& name, double q) const;
  /// Quantile of a coarse power-of-two Histogram over the window.
  double HistogramQuantile(const std::string& name, double q) const;

 private:
  std::map<std::string, double> counter_delta_;
  std::map<std::string, double> last_;
  // Per-bucket observation counts over the window, keyed by the bucket's
  // upper bound.
  std::map<std::string, std::map<double, uint64_t>> bucket_delta_;
};

/// a / b, or 0 when b is 0 (a layer the workload never reached).
double Ratio(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_SCRAPE_H_
