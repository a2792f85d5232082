// In-memory spans for the traced run. Each span carries a name, start
// and end stamps (obs::MonotonicNs), the index of the span that caused
// it, and a request or step id; the recorder keeps them all in memory
// and writes them out once, as Chrome trace-event JSON (loadable in
// Perfetto like the program's own HAP_TRACE output), when the run ends.
//
// Per-layer times in the traced run are read back from these spans, so
// what the trace shows and what the run reports are the same numbers.
#ifndef PERFBENCH_RUNNER_SPANS_H_
#define PERFBENCH_RUNNER_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct Span {
  const char* name = "";  // string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;    // 0 while open
  int parent = -1;        // index of the enclosing span, -1 for a root
  uint64_t id = 0;        // request or step id shared by related spans
  uint32_t track = 0;     // Chrome-trace thread row
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per call.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (-1 when disabled).
  int Begin(const char* name, int parent, uint64_t id, uint32_t track = 0);
  /// Closes span `index` now (no-op for -1).
  void End(int index);
  /// Records an already-closed span with explicit stamps (client frames
  /// are stamped on the socket threads). Returns its index.
  int Add(const char* name, uint64_t start_ns, uint64_t end_ns, int parent,
          uint64_t id, uint32_t track);

  /// OK when every span is closed and lies within its parent: a child
  /// starts no earlier and closes no later than the span that caused it.
  hap::Status CheckNesting() const;

  /// Durations in ns of the closed spans called `name`.
  std::vector<double> DurationsNs(const std::string& name) const;
  /// Sum of DurationsNs(name) / divisor, in microseconds (0 when the
  /// divisor is 0).
  double TotalUs(const std::string& name, double divisor) const;

  /// Writes every span as a Chrome trace-event "X" (complete) event.
  hap::Status WriteChromeTrace(const std::string& path) const;

  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;  // client socket threads record concurrently
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int parent = -1,
             uint64_t id = 0, uint32_t track = 0)
      : recorder_(recorder),
        index_(recorder->Begin(name, parent, id, track)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_SPANS_H_
