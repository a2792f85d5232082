#include "obs/metrics.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/exporter.h"

namespace hap::obs {
namespace {

// Per-thread storage for every sharded metric. A thread registers its
// shard on first touch and the registry keeps it alive after the thread
// exits so totals never regress.
struct Shard {
  std::atomic<uint64_t> counters[kMaxCounters] = {};
  std::atomic<uint64_t> hist_count[kMaxHistograms] = {};
  std::atomic<uint64_t> hist_sum[kMaxHistograms] = {};
  std::atomic<uint64_t> hist_buckets[kMaxHistograms][kHistogramBuckets] = {};
  std::atomic<uint64_t> sketch_count[kMaxSketches] = {};
  std::atomic<uint64_t> sketch_sum[kMaxSketches] = {};
  // Sketch bucket arrays are kSketchBuckets cells each, so they are
  // allocated lazily on the owning thread's first Record of that sketch
  // (most threads — pool workers timing kernels — never record one).
  // Only the owning thread stores the pointer; readers acquire so the
  // zero-initialised cells are visible before the pointer is.
  std::atomic<std::atomic<uint64_t>*> sketch_buckets[kMaxSketches] = {};

  ~Shard() {
    for (auto& cells : sketch_buckets) {
      delete[] cells.load(std::memory_order_relaxed);
    }
  }
};

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

class Registry {
 public:
  // Leaked singleton: metrics may be written from detached threads
  // during static destruction, so the registry must outlive everything.
  static Registry& Instance() {
    static Registry* instance = new Registry();
    return *instance;
  }

  Counter* GetCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counter_ids_.find(name);
    if (it != counter_ids_.end()) return counters_[it->second].get();
    if (num_counters_ >= kMaxCounters) {
      CapacityAbort("counter", name, counter_names_, num_counters_);
    }
    const int id = num_counters_++;
    counter_names_[id] = name;
    counter_ids_.emplace(name, id);
    counters_[id] = std::unique_ptr<Counter>(new Counter(id));
    return counters_[id].get();
  }

  Gauge* GetGauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauge_ids_.find(name);
    if (it != gauge_ids_.end()) return gauges_[it->second].get();
    if (num_gauges_ >= kMaxGauges) {
      CapacityAbort("gauge", name, gauge_names_, num_gauges_);
    }
    const int id = num_gauges_++;
    gauge_names_[id] = name;
    gauge_ids_.emplace(name, id);
    gauges_[id] = std::unique_ptr<Gauge>(new Gauge(id));
    return gauges_[id].get();
  }

  Histogram* GetHistogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histogram_ids_.find(name);
    if (it != histogram_ids_.end()) return histograms_[it->second].get();
    if (num_histograms_ >= kMaxHistograms) {
      CapacityAbort("histogram", name, histogram_names_, num_histograms_);
    }
    const int id = num_histograms_++;
    histogram_names_[id] = name;
    histogram_ids_.emplace(name, id);
    histograms_[id] = std::unique_ptr<Histogram>(new Histogram(id));
    return histograms_[id].get();
  }

  Sketch* GetSketch(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sketch_ids_.find(name);
    if (it != sketch_ids_.end()) return sketches_[it->second].get();
    if (num_sketches_ >= kMaxSketches) {
      CapacityAbort("sketch", name, sketch_names_, num_sketches_);
    }
    const int id = num_sketches_++;
    sketch_names_[id] = name;
    sketch_ids_.emplace(name, id);
    sketches_[id] = std::unique_ptr<Sketch>(new Sketch(id));
    return sketches_[id].get();
  }

  int FindCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counter_ids_.find(name);
    return it == counter_ids_.end() ? -1 : it->second;
  }

  int FindSketch(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sketch_ids_.find(name);
    return it == sketch_ids_.end() ? -1 : it->second;
  }

  Shard* RegisterShard() {
    auto shard = std::make_unique<Shard>();
    Shard* raw = shard.get();
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::move(shard));
    return raw;
  }

  uint64_t SumCounter(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[id].load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t SumHistCount(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->hist_count[id].load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t SumHistSum(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->hist_sum[id].load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t SumSketchCount(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->sketch_count[id].load(std::memory_order_relaxed);
    }
    return total;
  }

  uint64_t SumSketchSum(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->sketch_sum[id].load(std::memory_order_relaxed);
    }
    return total;
  }

  SketchSnapshot SnapshotOneSketch(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    SketchSnapshot snap;
    snap.name = sketch_names_[id];
    snap.buckets.assign(kSketchBuckets, 0);
    AccumulateSketchLocked(id, &snap);
    return snap;
  }

  void SetGaugeBits(int id, uint64_t bits) {
    gauge_cells_[id].store(bits, std::memory_order_relaxed);
  }
  uint64_t GaugeBits(int id) const {
    return gauge_cells_[id].load(std::memory_order_relaxed);
  }

  const std::string& CounterName(int id) const { return counter_names_[id]; }
  const std::string& GaugeName(int id) const { return gauge_names_[id]; }
  const std::string& HistogramName(int id) const {
    return histogram_names_[id];
  }
  const std::string& SketchName(int id) const { return sketch_names_[id]; }

  MetricsSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap;
    snap.counters.resize(num_counters_);
    for (int id = 0; id < num_counters_; ++id) {
      CounterSnapshot& c = snap.counters[id];
      c.name = counter_names_[id];
      c.per_thread.reserve(shards_.size());
      for (const auto& shard : shards_) {
        const uint64_t v = shard->counters[id].load(std::memory_order_relaxed);
        c.per_thread.push_back(v);
        c.value += v;
      }
    }
    snap.gauges.resize(num_gauges_);
    for (int id = 0; id < num_gauges_; ++id) {
      snap.gauges[id].name = gauge_names_[id];
      snap.gauges[id].value = std::bit_cast<double>(
          gauge_cells_[id].load(std::memory_order_relaxed));
    }
    snap.histograms.resize(num_histograms_);
    for (int id = 0; id < num_histograms_; ++id) {
      HistogramSnapshot& h = snap.histograms[id];
      h.name = histogram_names_[id];
      h.buckets.assign(kHistogramBuckets, 0);
      for (const auto& shard : shards_) {
        h.count += shard->hist_count[id].load(std::memory_order_relaxed);
        h.sum += shard->hist_sum[id].load(std::memory_order_relaxed);
        for (int b = 0; b < kHistogramBuckets; ++b) {
          h.buckets[b] +=
              shard->hist_buckets[id][b].load(std::memory_order_relaxed);
        }
      }
    }
    snap.sketches.resize(num_sketches_);
    for (int id = 0; id < num_sketches_; ++id) {
      SketchSnapshot& s = snap.sketches[id];
      s.name = sketch_names_[id];
      s.buckets.assign(kSketchBuckets, 0);
      AccumulateSketchLocked(id, &s);
    }
    return snap;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
      for (auto& c : shard->hist_count) c.store(0, std::memory_order_relaxed);
      for (auto& c : shard->hist_sum) c.store(0, std::memory_order_relaxed);
      for (auto& row : shard->hist_buckets) {
        for (auto& c : row) c.store(0, std::memory_order_relaxed);
      }
      for (auto& c : shard->sketch_count) c.store(0, std::memory_order_relaxed);
      for (auto& c : shard->sketch_sum) c.store(0, std::memory_order_relaxed);
      for (auto& cells : shard->sketch_buckets) {
        std::atomic<uint64_t>* row = cells.load(std::memory_order_acquire);
        if (row == nullptr) continue;
        for (int b = 0; b < kSketchBuckets; ++b) {
          row[b].store(0, std::memory_order_relaxed);
        }
      }
    }
    for (auto& g : gauge_cells_) g.store(0, std::memory_order_relaxed);
  }

 private:
  Registry() = default;

  [[noreturn]] void CapacityAbort(const char* kind, const std::string& name,
                                  const std::string* names, int count) const {
    std::fprintf(stderr,
                 "hap::obs: %s registry full (capacity %d) while registering "
                 "'%s' (raise kMax* in obs/metrics.h). Registered %s names:\n",
                 kind, count, name.c_str(), kind);
    for (int i = 0; i < count; ++i) {
      std::fprintf(stderr, "  %s\n", names[i].c_str());
    }
    std::abort();
  }

  void AccumulateSketchLocked(int id, SketchSnapshot* snap) const {
    for (const auto& shard : shards_) {
      snap->count += shard->sketch_count[id].load(std::memory_order_relaxed);
      snap->sum += shard->sketch_sum[id].load(std::memory_order_relaxed);
      const std::atomic<uint64_t>* cells =
          shard->sketch_buckets[id].load(std::memory_order_acquire);
      if (cells == nullptr) continue;
      for (int b = 0; b < kSketchBuckets; ++b) {
        snap->buckets[b] += cells[b].load(std::memory_order_relaxed);
      }
    }
  }

  mutable std::mutex mu_;
  int num_counters_ = 0;
  int num_gauges_ = 0;
  int num_histograms_ = 0;
  int num_sketches_ = 0;
  std::unordered_map<std::string, int> counter_ids_;
  std::unordered_map<std::string, int> gauge_ids_;
  std::unordered_map<std::string, int> histogram_ids_;
  std::unordered_map<std::string, int> sketch_ids_;
  std::string counter_names_[kMaxCounters];
  std::string gauge_names_[kMaxGauges];
  std::string histogram_names_[kMaxHistograms];
  std::string sketch_names_[kMaxSketches];
  std::unique_ptr<Counter> counters_[kMaxCounters];
  std::unique_ptr<Gauge> gauges_[kMaxGauges];
  std::unique_ptr<Histogram> histograms_[kMaxHistograms];
  std::unique_ptr<Sketch> sketches_[kMaxSketches];
  std::atomic<uint64_t> gauge_cells_[kMaxGauges] = {};
  std::vector<std::unique_ptr<Shard>> shards_;
};

thread_local Shard* tls_shard = nullptr;

inline Shard* LocalShard() {
  Shard* shard = tls_shard;
  if (shard == nullptr) {
    shard = Registry::Instance().RegisterShard();
    tls_shard = shard;
  }
  return shard;
}

void DumpMetricsAtExit();

// One-time HAP_METRICS parse. "0"/"" = off, "1" = on, anything else =
// on + dump a JSON snapshot to that path at exit.
struct EnvConfig {
  bool enabled = false;
  std::string dump_path;

  EnvConfig() {
    const char* env = std::getenv("HAP_METRICS");
    if (env == nullptr || env[0] == '\0') return;
    const std::string value(env);
    if (value == "0") return;
    enabled = true;
    if (value != "1") {
      dump_path = value;
      std::atexit(DumpMetricsAtExit);
    }
  }
};

EnvConfig& Env() {
  static EnvConfig* config = new EnvConfig();
  return *config;
}

// Count of live HotCountersHold instances; feeds g_hot_counters_enabled.
std::atomic<int> g_hot_counter_holds{0};

void RefreshHotCountersFlag() {
  const bool on =
      internal::g_metrics_enabled.load(std::memory_order_relaxed) ||
      g_hot_counter_holds.load(std::memory_order_relaxed) > 0;
  internal::g_hot_counters_enabled.store(on, std::memory_order_relaxed);
}

// Applies the HAP_METRICS parse to the inline-visible flag during this
// translation unit's dynamic initialisation (before main). Call sites
// that run earlier read the default (off), matching a not-yet-parsed
// environment.
const bool g_env_flag_applied = [] {
  internal::g_metrics_enabled.store(Env().enabled, std::memory_order_relaxed);
  RefreshHotCountersFlag();
  internal::StartEnvExporter();  // HAP_PROM, which implies metrics on
  return true;
}();

void DumpMetricsAtExit() {
  const std::string& path = Env().dump_path;
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::string json = SnapshotMetrics().ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

}  // namespace

int HistogramBucket(uint64_t value) {
  if (value == 0) return 0;
  const int width = std::bit_width(value);
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

uint64_t HistogramBucketLow(int b) {
  if (b <= 1) return b == 1 ? 1 : 0;
  return uint64_t{1} << (b - 1);
}

void Counter::Add(uint64_t delta) {
  LocalShard()->counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

uint64_t Counter::Value() const { return Registry::Instance().SumCounter(id_); }

const std::string& Counter::name() const {
  return Registry::Instance().CounterName(id_);
}

void Gauge::Set(double value) {
  Registry::Instance().SetGaugeBits(id_, std::bit_cast<uint64_t>(value));
}

double Gauge::Value() const {
  return std::bit_cast<double>(Registry::Instance().GaugeBits(id_));
}

const std::string& Gauge::name() const {
  return Registry::Instance().GaugeName(id_);
}

void Histogram::Record(uint64_t value) {
  Shard* shard = LocalShard();
  shard->hist_count[id_].fetch_add(1, std::memory_order_relaxed);
  shard->hist_sum[id_].fetch_add(value, std::memory_order_relaxed);
  shard->hist_buckets[id_][HistogramBucket(value)].fetch_add(
      1, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  return Registry::Instance().SumHistCount(id_);
}

uint64_t Histogram::Sum() const { return Registry::Instance().SumHistSum(id_); }

const std::string& Histogram::name() const {
  return Registry::Instance().HistogramName(id_);
}

void Sketch::Record(uint64_t value) {
  Shard* shard = LocalShard();
  shard->sketch_count[id_].fetch_add(1, std::memory_order_relaxed);
  shard->sketch_sum[id_].fetch_add(value, std::memory_order_relaxed);
  std::atomic<uint64_t>* cells =
      shard->sketch_buckets[id_].load(std::memory_order_relaxed);
  if (cells == nullptr) {
    // Only the owning thread writes this slot, so there is no race to
    // lose; the release store publishes the zero-initialised cells to
    // concurrent snapshotters.
    cells = new std::atomic<uint64_t>[kSketchBuckets]();
    shard->sketch_buckets[id_].store(cells, std::memory_order_release);
  }
  cells[SketchBucket(value)].fetch_add(1, std::memory_order_relaxed);
}

uint64_t Sketch::Count() const {
  return Registry::Instance().SumSketchCount(id_);
}

uint64_t Sketch::Sum() const { return Registry::Instance().SumSketchSum(id_); }

const std::string& Sketch::name() const {
  return Registry::Instance().SketchName(id_);
}

Counter* GetCounter(const std::string& name) {
  return Registry::Instance().GetCounter(name);
}

Gauge* GetGauge(const std::string& name) {
  return Registry::Instance().GetGauge(name);
}

Histogram* GetHistogram(const std::string& name) {
  return Registry::Instance().GetHistogram(name);
}

Sketch* GetSketch(const std::string& name) {
  return Registry::Instance().GetSketch(name);
}

uint64_t CounterValue(const std::string& name) {
  const int id = Registry::Instance().FindCounter(name);
  return id < 0 ? 0 : Registry::Instance().SumCounter(id);
}

SketchSnapshot SnapshotSketch(const std::string& name) {
  const int id = Registry::Instance().FindSketch(name);
  if (id < 0) {
    SketchSnapshot empty;
    empty.name = name;
    empty.buckets.assign(kSketchBuckets, 0);
    return empty;
  }
  return Registry::Instance().SnapshotOneSketch(id);
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0 : static_cast<double>(sum) / count;
}

uint64_t HistogramSnapshot::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(count - 1)) + 1;
  uint64_t cumulative = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= target) return HistogramBucketLow(b);
  }
  return HistogramBucketLow(kHistogramBuckets - 1);
}

namespace {

// Shared interpolated-quantile walk over any bucketed layout. `low(b)` /
// `high(b)` give bucket b's [low, high) span. Recorded values are
// integers, so a bucket only holds values in [low, high - 1]; the q-th
// value's rank is spread evenly over that inclusive span. Width-1
// (exact) buckets therefore return their value exactly.
template <typename LowFn, typename HighFn>
double InterpolatedQuantile(const std::vector<uint64_t>& buckets,
                            uint64_t count, double q, LowFn low, HighFn high) {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(count - 1)) + 1;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (cumulative + buckets[b] >= target) {
      const double within =
          static_cast<double>(target - cumulative - 1) + 0.5;
      const double fraction = within / static_cast<double>(buckets[b]);
      const double lo = static_cast<double>(low(static_cast<int>(b)));
      const double hi = static_cast<double>(high(static_cast<int>(b))) - 1.0;
      return lo + fraction * (hi - lo);
    }
    cumulative += buckets[b];
  }
  return static_cast<double>(high(static_cast<int>(buckets.size()) - 1) - 1);
}

}  // namespace

double HistogramSnapshot::QuantileInterpolated(double q) const {
  return InterpolatedQuantile(
      buckets, count, q, [](int b) { return HistogramBucketLow(b); },
      [](int b) {
        return b + 1 < kHistogramBuckets ? HistogramBucketLow(b + 1)
                                         : uint64_t{1} << kHistogramBuckets;
      });
}

double SketchSnapshot::Mean() const {
  return count == 0 ? 0.0 : static_cast<double>(sum) / count;
}

double SketchSnapshot::Quantile(double q) const {
  return InterpolatedQuantile(buckets, count, q,
                              [](int b) { return SketchBucketLow(b); },
                              [](int b) { return SketchBucketHigh(b); });
}

void SketchSnapshot::MergeFrom(const SketchSnapshot& other) {
  if (buckets.size() != static_cast<size_t>(kSketchBuckets)) {
    buckets.assign(kSketchBuckets, 0);
  }
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < other.buckets.size() && b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
}

SketchSnapshot SketchSnapshot::DeltaSince(const SketchSnapshot& earlier) const {
  SketchSnapshot delta;
  delta.name = name;
  delta.count = count - earlier.count;
  delta.sum = sum - earlier.sum;
  delta.buckets.assign(kSketchBuckets, 0);
  for (size_t b = 0; b < buckets.size(); ++b) {
    const uint64_t before =
        b < earlier.buckets.size() ? earlier.buckets[b] : 0;
    delta.buckets[b] = buckets[b] - before;
  }
  return delta;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":[";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i) out.push_back(',');
    out.append("{\"name\":\"");
    AppendEscaped(&out, counters[i].name);
    out.append("\",\"value\":");
    AppendU64(&out, counters[i].value);
    out.append(",\"per_thread\":[");
    for (size_t t = 0; t < counters[i].per_thread.size(); ++t) {
      if (t) out.push_back(',');
      AppendU64(&out, counters[i].per_thread[t]);
    }
    out.append("]}");
  }
  out.append("],\"gauges\":[");
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i) out.push_back(',');
    out.append("{\"name\":\"");
    AppendEscaped(&out, gauges[i].name);
    out.append("\",\"value\":");
    AppendDouble(&out, gauges[i].value);
    out.append("}");
  }
  out.append("],\"histograms\":[");
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i) out.push_back(',');
    out.append("{\"name\":\"");
    AppendEscaped(&out, h.name);
    out.append("\",\"count\":");
    AppendU64(&out, h.count);
    out.append(",\"sum\":");
    AppendU64(&out, h.sum);
    out.append(",\"mean\":");
    AppendDouble(&out, h.Mean());
    out.append(",\"p50\":");
    AppendU64(&out, h.ApproxQuantile(0.5));
    out.append(",\"p99\":");
    AppendU64(&out, h.ApproxQuantile(0.99));
    out.append(",\"bucket_low\":[");
    bool first = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      AppendU64(&out, HistogramBucketLow(b));
    }
    out.append("],\"bucket_count\":[");
    first = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      AppendU64(&out, h.buckets[b]);
    }
    out.append("]}");
  }
  out.append("],\"sketches\":[");
  for (size_t i = 0; i < sketches.size(); ++i) {
    const SketchSnapshot& s = sketches[i];
    if (i) out.push_back(',');
    out.append("{\"name\":\"");
    AppendEscaped(&out, s.name);
    out.append("\",\"count\":");
    AppendU64(&out, s.count);
    out.append(",\"sum\":");
    AppendU64(&out, s.sum);
    out.append(",\"mean\":");
    AppendDouble(&out, s.Mean());
    out.append(",\"p50\":");
    AppendDouble(&out, s.Quantile(0.5));
    out.append(",\"p99\":");
    AppendDouble(&out, s.Quantile(0.99));
    out.append(",\"p999\":");
    AppendDouble(&out, s.Quantile(0.999));
    out.append(",\"bucket_low\":[");
    bool first = true;
    for (int b = 0; b < kSketchBuckets; ++b) {
      if (s.buckets[b] == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      AppendU64(&out, SketchBucketLow(b));
    }
    out.append("],\"bucket_count\":[");
    first = true;
    for (int b = 0; b < kSketchBuckets; ++b) {
      if (s.buckets[b] == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      AppendU64(&out, s.buckets[b]);
    }
    out.append("]}");
  }
  out.append("]}");
  return out;
}

MetricsSnapshot SnapshotMetrics() { return Registry::Instance().Snapshot(); }

void ResetMetrics() { Registry::Instance().Reset(); }

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
std::atomic<bool> g_hot_counters_enabled{false};
}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
  RefreshHotCountersFlag();
}

HotCountersHold::HotCountersHold() {
  g_hot_counter_holds.fetch_add(1, std::memory_order_relaxed);
  RefreshHotCountersFlag();
}

HotCountersHold::~HotCountersHold() {
  g_hot_counter_holds.fetch_sub(1, std::memory_order_relaxed);
  RefreshHotCountersFlag();
}

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace hap::obs
