#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

int SpanRecorder::Begin(const char* name, int parent, uint64_t id,
                        uint32_t track) {
  if (!enabled_) return -1;
  const uint64_t now = hap::obs::MonotonicNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, 0, parent, id, track});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  const uint64_t now = hap::obs::MonotonicNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int SpanRecorder::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                      int parent, uint64_t id, uint32_t track) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, id, track});
  return static_cast<int>(spans_.size()) - 1;
}

hap::Status SpanRecorder::CheckNesting() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) {
      return hap::Status::FailedPrecondition(std::string("span ") + s.name +
                                             " was never closed");
    }
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    if (p.end_ns == 0 || s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return hap::Status::FailedPrecondition(
          std::string("span ") + s.name + " is not nested inside its parent " +
          p.name);
    }
  }
  return hap::Status::Ok();
}

std::vector<double> SpanRecorder::DurationsNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double SpanRecorder::TotalUs(const std::string& name, double divisor) const {
  if (divisor <= 0.0) return 0.0;
  double total = 0.0;
  for (double ns : DurationsNs(name)) total += ns;
  return total / 1e3 / divisor;
}

hap::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return hap::Status::Internal("cannot open " + path);
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t end = s.end_ns != 0 ? s.end_ns : s.start_ns;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%" PRIu64 "}}",
                 i == 0 ? "" : ",", s.name, s.track,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3, i, s.parent,
                 s.id);
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return hap::Status::Internal("writing " + path + " failed");
  }
  return hap::Status::Ok();
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace perfbench
