// Small measurement helpers shared by every workload: percentile
// selection with a sample-count floor, wire-frame accounting, and the
// peak-RSS reader.
#ifndef PERFBENCH_RUNNER_STATS_H_
#define PERFBENCH_RUNNER_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of samples and moves from
/// run to run by more than any bound could absorb.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// Samples strictly beyond the q-quantile of n samples (n - ceil(q*n)).
int64_t SamplesBeyond(int64_t n, double q);

/// The q-quantile (0 < q < 1) of `samples`, linearly interpolated between
/// order statistics. Fails with OutOfRange, naming the counts, when fewer
/// than kMinSamplesBeyond samples lie beyond q.
hap::StatusOr<double> SupportedQuantile(std::vector<double> samples,
                                        double q);

/// Median of a non-empty sample (no floor: medians of a few set-up
/// repetitions are what set-up time is reported as).
double Median(std::vector<double> samples);

/// Samples grouped by the whole second of a run they were taken in. Its
/// medians over seconds are what the workloads report: a stall of the
/// host shorter than half the run does not move them.
class PerSecond {
 public:
  explicit PerSecond(double start_s) : start_s_(start_s) {}

  void Add(double now_s, double value);
  /// Drops the seconds not complete at `end_s`.
  void Finish(double end_s);

  /// Multiplies the samples of each second by factor(from_s, to_s) of
  /// that second's span.
  template <typename Factor>
  void Scale(Factor&& factor) {
    for (size_t s = 0; s < values_.size(); ++s) {
      const double f = factor(start_s_ + static_cast<double>(s),
                              start_s_ + static_cast<double>(s + 1));
      for (double& v : values_[s]) v *= f;
    }
  }
  /// Median over seconds of each second's samples per unit of their
  /// summed value: with durations in `unit_s` seconds, the rate at which
  /// the second's operations ran.
  double MedianRate(double unit_s) const;
  /// Median over seconds of each second's q-quantile (SupportedQuantile,
  /// so every second must hold enough samples for q).
  hap::StatusOr<double> MedianQuantile(double q) const;

 private:
  double start_s_;
  std::vector<std::vector<double>> values_;
};

/// Minima by position over consecutive blocks of `block` samples (an
/// incomplete last block is dropped): element i is the least of the
/// blocks' i-th samples. When every block repeats the same operations in
/// the same order, it is each operation's time in the repeat that host
/// stalls disturbed least. Empty when there is no complete block.
std::vector<double> BlockwiseMin(const std::vector<double>& samples,
                                 size_t block);

/// Response accounting for one client stream: every kPredict frame sent
/// must come back exactly once as a prediction, a shed (typed
/// RESOURCE_EXHAUSTED) or another typed error.
struct FrameTally {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t error = 0;

  void Answered(hap::serve::FrameType type, hap::StatusCode status);
  void Merge(const FrameTally& other);
  int64_t answered() const { return ok + shed + error; }
  /// ok + shed + error == sent.
  bool Balanced() const { return answered() == sent; }
};

/// VmHWM (peak resident set) in MiB from the text of /proc/<pid>/status.
/// Fails when the line is missing or malformed.
hap::StatusOr<double> ParseVmHwmMb(const std::string& proc_status);

/// Reads /proc/<pid>/status (pid 0 = this process) and parses VmHWM.
hap::StatusOr<double> ReadVmHwmMb(int pid);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_STATS_H_
