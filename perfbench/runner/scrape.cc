#include "scrape.h"

#include <cstdlib>
#include <sstream>

#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/sketch.h"

namespace perfbench {

std::string PromName(const std::string& name) {
  std::string out = "hap_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

hap::StatusOr<Scrape> ParsePrometheus(const std::string& text) {
  Scrape scrape;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      return hap::Status::InvalidArgument("bad exposition line: " + line);
    }
    const std::string value_text = line.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      return hap::Status::InvalidArgument("bad sample value: " + line);
    }
    const std::string key = line.substr(0, space);
    const size_t brace = key.find("_bucket{le=\"");
    if (brace == std::string::npos) {
      scrape.samples[key] = value;
      continue;
    }
    const std::string le = key.substr(brace + 12, key.size() - brace - 14);
    if (le == "+Inf") continue;
    scrape.buckets[key.substr(0, brace)].emplace_back(
        std::strtod(le.c_str(), nullptr), static_cast<uint64_t>(value));
  }
  return scrape;
}

Scrape ScrapeSelf() {
  return ParsePrometheus(hap::obs::RenderPrometheus(hap::obs::SnapshotMetrics()))
      .value();
}

namespace {

// Per-bucket counts (keyed by upper bound) from cumulative exposition.
std::map<double, uint64_t> BucketCounts(
    const std::vector<std::pair<double, uint64_t>>& cumulative) {
  std::map<double, uint64_t> out;
  uint64_t previous = 0;
  for (const auto& [le, cum] : cumulative) {
    out[le] = cum - previous;
    previous = cum;
  }
  return out;
}

}  // namespace

Window::Window(const Scrape& before, const Scrape& after) {
  for (const auto& [name, value] : after.samples) {
    auto it = before.samples.find(name);
    counter_delta_[name] = value - (it == before.samples.end() ? 0 : it->second);
    last_[name] = value;
  }
  for (const auto& [name, cumulative] : after.buckets) {
    std::map<double, uint64_t> delta = BucketCounts(cumulative);
    auto it = before.buckets.find(name);
    if (it != before.buckets.end()) {
      for (const auto& [le, count] : BucketCounts(it->second)) {
        delta[le] -= count;
      }
    }
    bucket_delta_[name] = std::move(delta);
  }
}

void Window::Merge(const Window& other) {
  for (const auto& [name, value] : other.counter_delta_) {
    counter_delta_[name] += value;
  }
  for (const auto& [name, value] : other.last_) last_[name] = value;
  for (const auto& [name, buckets] : other.bucket_delta_) {
    for (const auto& [le, count] : buckets) bucket_delta_[name][le] += count;
  }
}

double Window::Counter(const std::string& name) const {
  auto it = counter_delta_.find(PromName(name));
  return it == counter_delta_.end() ? 0.0 : it->second;
}

double Window::Gauge(const std::string& name) const {
  auto it = last_.find(PromName(name));
  return it == last_.end() ? 0.0 : it->second;
}

double Window::Count(const std::string& name) const {
  return Counter(name + "_count");
}

double Window::Sum(const std::string& name) const {
  return Counter(name + "_sum");
}

double Window::SketchQuantile(const std::string& name, double q) const {
  auto it = bucket_delta_.find(PromName(name));
  if (it == bucket_delta_.end()) return 0.0;
  hap::obs::SketchSnapshot snap;
  snap.buckets.assign(hap::obs::kSketchBuckets, 0);
  for (const auto& [le, count] : it->second) {
    const int b = hap::obs::SketchBucket(static_cast<uint64_t>(le) - 1);
    snap.buckets[static_cast<size_t>(b)] += count;
    snap.count += count;
  }
  return snap.count == 0 ? 0.0 : snap.Quantile(q);
}

double Window::HistogramQuantile(const std::string& name, double q) const {
  auto it = bucket_delta_.find(PromName(name));
  if (it == bucket_delta_.end()) return 0.0;
  hap::obs::HistogramSnapshot snap;
  snap.buckets.assign(hap::obs::kHistogramBuckets, 0);
  for (const auto& [le, count] : it->second) {
    const int b = hap::obs::HistogramBucket(static_cast<uint64_t>(le) - 1);
    snap.buckets[static_cast<size_t>(b)] += count;
    snap.count += count;
  }
  return snap.count == 0 ? 0.0 : snap.QuantileInterpolated(q);
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
