#include "obs/exporter.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/sketch.h"

namespace hap::obs {

namespace {

// --- scrape sections -------------------------------------------------

struct SectionRegistry {
  std::mutex mu;
  std::map<std::string, std::function<std::string()>> providers;
};

SectionRegistry& Sections() {
  static SectionRegistry* registry = new SectionRegistry();
  return *registry;
}

// --- Prometheus text rendering ---------------------------------------

// Metric names are dot-separated internally; Prometheus names are
// [a-zA-Z_:][a-zA-Z0-9_:]*. Map every invalid byte to '_' and prefix
// the exporter namespace.
std::string PromName(const std::string& name) {
  std::string out = "hap_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

// One histogram-family emission shared by Histogram and Sketch
// snapshots: cumulative `_bucket{le="high"}` per occupied bucket,
// `+Inf`, `_sum`, `_count`.
template <typename HighFn>
void AppendPromHistogram(std::string* out, const std::string& prom_name,
                         const std::vector<uint64_t>& buckets, uint64_t count,
                         uint64_t sum, HighFn high) {
  out->append("# TYPE " + prom_name + " histogram\n");
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    cumulative += buckets[b];
    out->append(prom_name + "_bucket{le=\"");
    out->append(std::to_string(high(static_cast<int>(b))));
    out->append("\"} ");
    out->append(std::to_string(cumulative));
    out->push_back('\n');
  }
  out->append(prom_name + "_bucket{le=\"+Inf\"} ");
  out->append(std::to_string(count));
  out->push_back('\n');
  out->append(prom_name + "_sum ");
  out->append(std::to_string(sum));
  out->push_back('\n');
  out->append(prom_name + "_count ");
  out->append(std::to_string(count));
  out->push_back('\n');
}

}  // namespace

void RegisterScrapeSection(const std::string& key,
                           std::function<std::string()> provider) {
  SectionRegistry& registry = Sections();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.providers[key] = std::move(provider);
}

std::string RenderPrometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const CounterSnapshot& c : snap.counters) {
    const std::string name = PromName(c.name);
    out.append("# TYPE " + name + " counter\n");
    out.append(name + " " + std::to_string(c.value) + "\n");
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    const std::string name = PromName(g.name);
    out.append("# TYPE " + name + " gauge\n");
    out.append(name + " ");
    AppendDouble(&out, g.value);
    out.push_back('\n');
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    AppendPromHistogram(&out, PromName(h.name), h.buckets, h.count, h.sum,
                        [](int b) {
                          return b + 1 < kHistogramBuckets
                                     ? HistogramBucketLow(b + 1)
                                     : uint64_t{1} << kHistogramBuckets;
                        });
  }
  for (const SketchSnapshot& s : snap.sketches) {
    AppendPromHistogram(&out, PromName(s.name), s.buckets, s.count, s.sum,
                        [](int b) { return SketchBucketHigh(b); });
  }
  return out;
}

std::string RenderExporterJson(const MetricsSnapshot& snap,
                               const MetricsSnapshot& prev) {
  std::string out = "{\"cumulative\":";
  out += snap.ToJson();
  out += ",\"interval_sketches\":[";
  bool first = true;
  for (const SketchSnapshot& s : snap.sketches) {
    const SketchSnapshot* earlier = nullptr;
    for (const SketchSnapshot& p : prev.sketches) {
      if (p.name == s.name) {
        earlier = &p;
        break;
      }
    }
    SketchSnapshot delta =
        earlier != nullptr ? s.DeltaSince(*earlier) : s;
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"" + delta.name + "\",\"count\":";
    out += std::to_string(delta.count);
    out += ",\"p50\":";
    AppendDouble(&out, delta.Quantile(0.5));
    out += ",\"p99\":";
    AppendDouble(&out, delta.Quantile(0.99));
    out += ",\"p999\":";
    AppendDouble(&out, delta.Quantile(0.999));
    out += "}";
  }
  out += "],\"sections\":{";
  {
    SectionRegistry& registry = Sections();
    std::lock_guard<std::mutex> lock(registry.mu);
    first = true;
    for (const auto& [key, provider] : registry.providers) {
      if (!first) out.push_back(',');
      first = false;
      out += "\"" + key + "\":" + provider();
    }
  }
  out += "}}";
  return out;
}

namespace {

// Writes `content` to `path` atomically (tmp + rename) so a concurrent
// reader never sees a torn file. Every step is checked — fwrite can
// return short and fclose can surface a deferred flush error (e.g. a
// full disk) — and a failed write removes the tmp file instead of
// renaming it into place, so a scrape consumer never reads a truncated
// exposition; the previously published file stays intact.
bool AtomicWrite(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != content.size() || !closed ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

struct TelemetryExporter::Impl {
  Options options;
  std::thread worker;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  MetricsSnapshot prev;  // last scrape, for interval deltas (guarded by mu)
  // Logged-skip state; atomic because ScrapeOnce may race the loop.
  std::atomic<bool> write_failing{false};

  bool Scrape() {
    MetricsSnapshot snap = SnapshotMetrics();
    std::string json;
    {
      std::lock_guard<std::mutex> lock(mu);
      json = RenderExporterJson(snap, prev);
      prev = snap;
    }
    if (options.path.empty()) return true;
    const std::string prom = RenderPrometheus(snap);
    const bool ok_prom = AtomicWrite(options.path, prom);
    const bool ok_json = AtomicWrite(options.path + ".json", json);
    const bool ok = ok_prom && ok_json;
    // A failing disk degrades to a logged skip — the last good scrape
    // stays published, and the log fires on state *changes* so a full
    // disk does not also fill stderr (one line per outage, one on
    // recovery).
    if (write_failing.exchange(!ok) != !ok) {
      if (ok) {
        std::fprintf(stderr,
                     "hap::obs: telemetry scrape write to '%s' recovered\n",
                     options.path.c_str());
      } else {
        std::fprintf(stderr,
                     "hap::obs: telemetry scrape write to '%s' failed; "
                     "keeping last published scrape\n",
                     options.path.c_str());
      }
    }
    return ok;
  }

  void ScrapeLoop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stop) {
      cv.wait_for(lock, std::chrono::milliseconds(options.interval_ms),
                  [this] { return stop; });
      if (stop) break;
      lock.unlock();
      Scrape();
      lock.lock();
    }
  }
};

TelemetryExporter::TelemetryExporter(const Options& options)
    : impl_(new Impl()) {
  impl_->options = options;
  if (!options.path.empty()) {
    impl_->worker = std::thread([impl = impl_] { impl->ScrapeLoop(); });
  }
}

TelemetryExporter::~TelemetryExporter() {
  Stop();
  delete impl_;
}

bool TelemetryExporter::ScrapeOnce() { return impl_->Scrape(); }

void TelemetryExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stop) return;
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  if (impl_->worker.joinable()) impl_->worker.join();
  // Final scrape so readers of the files see the complete run.
  if (!impl_->options.path.empty()) impl_->Scrape();
}

namespace internal {

void StartEnvExporter() {
  const char* env = std::getenv("HAP_PROM");
  if (env == nullptr || env[0] == '\0') return;
  SetMetricsEnabled(true);
  TelemetryExporter::Options options;
  options.path = env;
  const char* interval = std::getenv("HAP_PROM_INTERVAL_MS");
  if (interval != nullptr && interval[0] != '\0') {
    const int ms = std::atoi(interval);
    if (ms > 0) options.interval_ms = ms;
  }
  static TelemetryExporter* exporter = new TelemetryExporter(options);
  std::atexit([] { exporter->Stop(); });
}

}  // namespace internal

}  // namespace hap::obs
