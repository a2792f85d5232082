#include "pace.h"

#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

#include "stats.h"

namespace perfbench {
namespace {

// Repetitions of each part, sized so that the parts take similar shares
// of a pass and a pass takes about kNominalS on a quiet host. Every part
// works in memory of its own (stack or static) that fits in cache.
constexpr int kGemms = 40;
constexpr int kWidth = 32;
constexpr int kElementwisePasses = 18;
constexpr int kElements = 1024;
constexpr int kHashPasses = 64;
constexpr int kKeys = 1500;
constexpr size_t kSlots = 4096;
constexpr int kNumbers = 9000;

uint64_t Gemms() {
  float a[kWidth * kWidth], b[kWidth * kWidth], c[kWidth * kWidth];
  for (int i = 0; i < kWidth * kWidth; ++i) {
    a[i] = static_cast<float>(i % 13) * 0.01f;
    b[i] = static_cast<float>(i % 7) * 0.02f;
  }
  for (int rep = 0; rep < kGemms; ++rep) {
    std::fill(c, c + kWidth * kWidth, 0.0f);
    for (int i = 0; i < kWidth; ++i) {
      for (int k = 0; k < kWidth; ++k) {
        const float x = a[i * kWidth + k];
        for (int j = 0; j < kWidth; ++j) {
          c[i * kWidth + j] += x * b[k * kWidth + j];
        }
      }
    }
    a[rep] += c[rep * 37 % (kWidth * kWidth)] * 1e-6f;
  }
  return static_cast<uint64_t>(c[kWidth + 1] * 1e3f);
}

uint64_t Elementwise() {
  float v[kElements];
  for (int i = 0; i < kElements; ++i) {
    v[i] = static_cast<float>(i % 17) * 0.1f;
  }
  for (int rep = 0; rep < kElementwisePasses; ++rep) {
    float max = v[0];
    for (float x : v) max = std::max(max, x);
    float sum = 0.0f;
    for (float& x : v) {
      x = std::exp(x - max);
      sum += x;
    }
    for (float& x : v) x = std::log1p(x / sum) * 8.0f;
  }
  return static_cast<uint64_t>(v[kElements / 3] * 1e6f);
}

// Inserts and looks up keys in an open-addressing table of fixed size.
// The table is the pass's own static memory, not the heap: allocations
// would make the pass's time depend on the heap the workload left behind
// (after a PrepareDataset of 4000 graphs, 1500 small allocations took 1.8x
// as long as in a fresh process).
uint64_t HashTable() {
  static uint64_t table[kSlots];
  std::fill(std::begin(table), std::end(table), 0);
  uint64_t sum = 0;
  for (int rep = 0; rep < kHashPasses; ++rep) {
    for (int i = 1; i <= kKeys; ++i) {
      const uint64_t key = static_cast<uint64_t>(i + rep * kKeys) *
                           0x9e3779b97f4a7c15ull;
      size_t slot = static_cast<size_t>(key >> 52) % kSlots;
      while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) % kSlots;
      table[slot] = key;
    }
    for (int i = 1; i <= kKeys; ++i) {
      const uint64_t key = static_cast<uint64_t>(i * 3 + rep * kKeys) *
                           0x9e3779b97f4a7c15ull;
      size_t slot = static_cast<size_t>(key >> 52) % kSlots;
      while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) % kSlots;
      sum += table[slot] == key ? slot : 1;
    }
    std::fill(std::begin(table), std::end(table), 0);
  }
  return sum;
}

const std::string& NumberText() {
  static const std::string text = [] {
    std::string s;
    for (int i = 0; i < kNumbers; ++i) {
      s += std::to_string((i * 7919) % 100003);
      s += i % 16 == 15 ? '\n' : ' ';
    }
    return s;
  }();
  return text;
}

uint64_t Parsing() {
  const char* p = NumberText().c_str();
  uint64_t sum = 0;
  char* end = nullptr;
  for (long v = std::strtol(p, &end, 10); end != p;
       v = std::strtol(p, &end, 10)) {
    sum += static_cast<uint64_t>(v);
    p = end;
  }
  return sum;
}

uint64_t Work() { return Gemms() ^ Elementwise() ^ HashTable() ^ Parsing(); }

double MonotonicS() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);  // steady_clock's clock
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Probes taken by the timer signal while a Sampled() piece of work runs:
// the handler interrupts the work on its own thread, times a pass as
// Probe() does, and stores it here; SamplingEnd() collects them.
constexpr int kMaxSamples = 8192;
double g_sample_at_s[kMaxSamples];
double g_sample_seconds[kMaxSamples];
std::atomic<int> g_samples{0};
std::atomic<bool> g_sampling{false};
volatile uint64_t g_sample_sink = 0;

void OnSampleSignal(int) {
  const int saved_errno = errno;
  const int n = g_samples.load(std::memory_order_relaxed);
  if (g_sampling.load(std::memory_order_relaxed) && n < kMaxSamples) {
    g_sample_sink = g_sample_sink + Work();
    const double start = MonotonicS();
    g_sample_sink = g_sample_sink + Work();
    g_sample_at_s[n] = MonotonicS();
    g_sample_seconds[n] = g_sample_at_s[n] - start;
    g_samples.store(n + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

// The POSIX timer that signals the thread that created it, with
// OnSampleSignal installed; created on first use, deleted at exit.
class SampleTimer {
 public:
  static SampleTimer& Get() {
    static SampleTimer timer;
    return timer;
  }

  // Fires every `interval_s` seconds, or never for 0.
  void Set(double interval_s) {
    const auto ns = static_cast<long>(interval_s * 1e9);
    const itimerspec period = {{ns / 1000000000, ns % 1000000000},
                               {ns / 1000000000, ns % 1000000000}};
    if (timer_settime(id_, 0, &period, nullptr) != 0) {
      throw std::runtime_error("pace: cannot set the sampling timer");
    }
  }

  SampleTimer(const SampleTimer&) = delete;
  SampleTimer& operator=(const SampleTimer&) = delete;

 private:
  SampleTimer() {
    // The handler must not allocate: the pass's static text is built
    // here, outside it.
    g_sample_sink = g_sample_sink + Work();
    const int signal = SIGRTMIN + 3;
    struct sigaction action = {};
    action.sa_handler = OnSampleSignal;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigevent event = {};
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = signal;
    event._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    if (sigaction(signal, &action, nullptr) != 0 ||
        timer_create(CLOCK_MONOTONIC, &event, &id_) != 0) {
      throw std::runtime_error("pace: cannot create the sampling timer");
    }
  }
  ~SampleTimer() { timer_delete(id_); }

  timer_t id_ = {};
};

}  // namespace

uint64_t ReferenceWork() { return Work(); }

void Pace::SamplingBegin() {
  SampleTimer& timer = SampleTimer::Get();
  g_samples.store(0);
  g_sampling.store(true);
  timer.Set(interval_s_);
}

void Pace::SamplingEnd() {
  // A signal pending when the timer stops is handled on the way out of
  // this call, before the samples are read.
  SampleTimer::Get().Set(0.0);
  g_sampling.store(false);
  const int n = g_samples.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) Record(g_sample_at_s[i], g_sample_seconds[i]);
}

void Pace::Probe() {
  sink_ += ReferenceWork();
  const double start = Now();
  sink_ += ReferenceWork();
  const double end = Now();
  Record(end, end - start);
}

void Pace::MaybeProbe() {
  if (Now() - last_s_ >= interval_s_) Probe();
}

void Pace::Record(double at_s, double seconds) {
  at_s_.push_back(at_s);
  seconds_.push_back(seconds);
  last_s_ = at_s;
}

double Pace::Factor(double from_s, double to_s) const {
  if (seconds_.empty()) return 1.0;
  const auto lo = std::lower_bound(at_s_.begin(), at_s_.end(), from_s - kWindowS);
  const auto hi = std::upper_bound(at_s_.begin(), at_s_.end(), to_s + kWindowS);
  if (lo >= hi) return kNominalS / MedianProbeS();
  return kNominalS / Median(std::vector<double>(
                         seconds_.begin() + (lo - at_s_.begin()),
                         seconds_.begin() + (hi - at_s_.begin())));
}

std::vector<double> Intervals::Scaled(const Pace& pace) const {
  std::vector<double> scaled;
  for (size_t i = 0; i < wall_s_.size(); ++i) {
    scaled.push_back(wall_s_[i] *
                     pace.Factor(start_s_[i], start_s_[i] + wall_s_[i]));
  }
  return scaled;
}

double Pace::MedianProbeS() const {
  return seconds_.empty() ? 0.0 : Median(seconds_);
}

}  // namespace perfbench
