// Host pace: the speed of the CPU the benchmark runs on, measured by
// timing a fixed reference computation on the workload's thread, and
// used to express the workload's times in reference time.
//
// The shared machines the benchmark runs on change speed by up to 1.8x
// from one minute to the next (a fixed loop took 8 ms per pass, then 15
// ms, in thread CPU time as in wall time), so a run measured in wall
// time reads the host's state as much as the program's. Each run probes
// the reference every 0.1 s, between the workload's operations or, during
// a call that cannot stop, from a timer signal on the same thread, and
// scales each wall time by Factor() over the probes around it: a time
// reads as it would on a host where the reference takes kNominalS. The
// reference is the benchmark's own code, in memory of its own, so a
// change to the program moves the program's times and not the reference.
//
// Over ten seeded train_hap runs, the spread (quartile distance / median)
// of the step p50 was 18% in wall time, 13-14% scaled by the run's median
// probe, and 5.5-6.3% scaled by the probes around each step.
#ifndef PERFBENCH_RUNNER_PACE_H_
#define PERFBENCH_RUNNER_PACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Runs the reference computation once: a fixed mix of the kinds of work
/// the workloads spend their time on (small dense float GEMMs of width
/// 32, exp/log passes, hash-table probes, integer parsing), in memory of
/// its own. Returns a checksum so the work cannot be optimized away.
uint64_t ReferenceWork();

class Pace;

/// Wall intervals of a run's operations, turned into reference seconds
/// once the probes around them are all in.
class Intervals {
 public:
  void Add(double start_s, double wall_s) {
    start_s_.push_back(start_s);
    wall_s_.push_back(wall_s);
  }
  size_t size() const { return wall_s_.size(); }
  /// Each interval's wall time scaled by pace.Factor() over it, in order.
  std::vector<double> Scaled(const Pace& pace) const;

 private:
  std::vector<double> start_s_;
  std::vector<double> wall_s_;
};

class Pace {
 public:
  /// Reference seconds per pass: the unit the workloads' times are
  /// expressed in.
  static constexpr double kNominalS = 1.0e-3;
  /// Factor() takes the probes within this many seconds of a span.
  static constexpr double kWindowS = 0.5;

  /// MaybeProbe() and Sampled() probe every `interval_s` seconds.
  explicit Pace(double interval_s = 0.1) : interval_s_(interval_s) {}

  /// Times one pass of the reference, after an untimed pass that brings
  /// its data back into cache, and records it.
  void Probe();
  /// Probe() if at least the interval has passed since the last probe.
  void MaybeProbe();
  /// Runs `work`, which cannot stop for probes, while a timer signal
  /// interrupts it on this thread every interval to take a probe; adds
  /// its wall interval to `into` and returns its wall time in seconds.
  /// Only the thread that first calls Sampled() may call it.
  template <typename Work>
  double Sampled(Intervals* into, Work&& work) {
    SamplingBegin();
    const double start = Now();
    try {
      work();
    } catch (...) {
      SamplingEnd();
      throw;
    }
    const double wall = Now() - start;
    SamplingEnd();
    into->Add(start, wall);
    return wall;
  }

  /// Reference seconds per wall second over [from_s, to_s]: kNominalS
  /// over the median of the probes taken from kWindowS before `from_s` to
  /// kWindowS after `to_s`, or of every probe when none was (1 before the
  /// first probe).
  double Factor(double from_s, double to_s) const;
  size_t probes() const { return seconds_.size(); }
  /// Median duration of every probe so far, in seconds (0 before any).
  double MedianProbeS() const;

  /// Records a probe of `seconds` that ended at `at_s`; times must not
  /// decrease. Probe() records through it.
  void Record(double at_s, double seconds);

  /// Steady-clock seconds.
  static double Now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  void SamplingBegin();
  void SamplingEnd();

  double interval_s_;
  double last_s_ = -1e300;
  std::vector<double> at_s_;
  std::vector<double> seconds_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_PACE_H_
