// Tests of the benchmark's own helpers: percentile selection, frame
// accounting, VmHWM parsing, span nesting, the registry scrape and the
// host pace.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "obs/metrics.h"
#include "pace.h"
#include "scrape.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(SupportedQuantileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(SupportedQuantile(OneTo(100), 0.5).value(), 50.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(OneTo(100), 0.9).value(), 90.1);
}

TEST(SupportedQuantileTest, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9);
  EXPECT_TRUE(SupportedQuantile(OneTo(100), 0.9).ok());
  EXPECT_FALSE(SupportedQuantile(OneTo(99), 0.9).ok());
  EXPECT_TRUE(SupportedQuantile(OneTo(20), 0.5).ok());
  EXPECT_FALSE(SupportedQuantile(OneTo(19), 0.5).ok());
  EXPECT_FALSE(SupportedQuantile({}, 0.5).ok());
  // p99 needs a thousand samples.
  EXPECT_FALSE(SupportedQuantile(OneTo(999), 0.99).ok());
  EXPECT_TRUE(SupportedQuantile(OneTo(1000), 0.99).ok());
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(PerSecondTest, MediansOverCompleteSeconds) {
  PerSecond per_second(100.0);
  for (int i = 0; i < 30; ++i) per_second.Add(100.5, i);  // second 0
  for (int i = 0; i < 20; ++i) per_second.Add(101.5, 100 + i);  // second 1
  for (int i = 0; i < 40; ++i) per_second.Add(102.5, 200 + i);  // second 2
  per_second.Add(103.2, 1e9);  // second 3, not complete at 103.5
  per_second.Finish(103.5);
  // Per-second medians 14.5, 109.5 and 219.5.
  EXPECT_DOUBLE_EQ(per_second.MedianQuantile(0.5).value(), 109.5);
  // p90 needs 100 samples in every second.
  EXPECT_FALSE(per_second.MedianQuantile(0.9).ok());
  EXPECT_FALSE(PerSecond(0.0).MedianQuantile(0.5).ok());
}

TEST(PerSecondTest, MedianRateOverCompleteSeconds) {
  PerSecond per_second(0.0);
  for (int i = 0; i < 10; ++i) per_second.Add(0.5, 2.0);  // 10 in 20 ms
  for (int i = 0; i < 4; ++i) per_second.Add(1.5, 5.0);   // 4 in 20 ms
  for (int i = 0; i < 5; ++i) per_second.Add(2.5, 1.0);   // 5 in 5 ms
  per_second.Finish(3.0);
  // Rates 500, 200 and 1000 per second with durations in ms.
  EXPECT_DOUBLE_EQ(per_second.MedianRate(1e-3), 500.0);
  EXPECT_DOUBLE_EQ(PerSecond(0.0).MedianRate(1e-3), 0.0);
  // Scaling second s by s + 1 halves the second's rate, thirds the third's.
  per_second.Scale([](double from_s, double to_s) {
    EXPECT_DOUBLE_EQ(to_s - from_s, 1.0);
    return from_s + 1.0;
  });
  EXPECT_DOUBLE_EQ(per_second.MedianRate(1e-3), 333.33333333333331);
}

TEST(BlockwiseMinTest, MinimaByPositionOverCompleteBlocks) {
  const std::vector<double> samples = {5, 1, 7,   // block 0
                                       4, 3, 9,   // block 1
                                       6, 2, 8,   // block 2
                                       0};        // incomplete: dropped
  EXPECT_EQ(BlockwiseMin(samples, 3), (std::vector<double>{4, 1, 7}));
  EXPECT_EQ(BlockwiseMin(samples, 11), std::vector<double>());
  EXPECT_EQ(BlockwiseMin(samples, 0), std::vector<double>());
}

TEST(PaceTest, FactorTakesTheProbesAroundASpan) {
  Pace pace;
  EXPECT_DOUBLE_EQ(pace.Factor(0, 1), 1.0);
  // Fast probes at 0..5 s, slow ones at 6..15 s.
  for (int i = 0; i < 6; ++i) pace.Record(i, 2 * Pace::kNominalS);
  for (int i = 6; i < 16; ++i) pace.Record(i, 4 * Pace::kNominalS);
  EXPECT_DOUBLE_EQ(pace.Factor(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(pace.Factor(9, 10), 0.25);
  // The span widens by kWindowS on each side: [4.6, 5.2] takes the probe
  // at 5 s, [5.2, 5.8] those at 5 s and 6 s.
  EXPECT_DOUBLE_EQ(pace.Factor(4.6, 5.2), 0.5);
  EXPECT_DOUBLE_EQ(pace.Factor(5.2, 5.8), 1.0 / 3.0);
  // No probe near: the median of all of them.
  EXPECT_DOUBLE_EQ(pace.Factor(30, 31), 0.25);
  EXPECT_DOUBLE_EQ(pace.MedianProbeS(), 4 * Pace::kNominalS);
  EXPECT_EQ(pace.probes(), 16u);
}

TEST(PaceTest, OneSlowProbeDoesNotMoveTheFactor) {
  Pace pace;
  for (int i = 0; i < 9; ++i) {
    pace.Record(i, (i == 4 ? 50 : 2) * Pace::kNominalS);
  }
  EXPECT_DOUBLE_EQ(pace.Factor(0, 8), 0.5);
}

TEST(PaceTest, IntervalsScaleByTheProbesAroundEach) {
  Pace pace;
  for (int i = 0; i < 10; ++i) {
    pace.Record(i, (i < 5 ? 2 : 4) * Pace::kNominalS);
  }
  Intervals intervals;
  intervals.Add(1.0, 0.5);  // among fast probes
  intervals.Add(7.0, 1.0);  // among slow probes
  EXPECT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals.Scaled(pace), (std::vector<double>{0.25, 0.25}));
}

TEST(PaceTest, MaybeProbeKeepsTheInterval) {
  Pace pace(3600.0);
  pace.MaybeProbe();
  pace.MaybeProbe();
  EXPECT_EQ(pace.probes(), 1u);
  EXPECT_GT(pace.MedianProbeS(), 0.0);
}

TEST(PaceTest, SampledProbesWhileWorkRuns) {
  Pace pace(0.05);
  Intervals intervals;
  const double wall = pace.Sampled(&intervals, [] {
    const double end = Pace::Now() + 0.3;
    while (Pace::Now() < end) {
    }
  });
  EXPECT_GE(wall, 0.3);
  EXPECT_EQ(intervals.size(), 1u);
  // The timer fires every 50 ms of the 300 ms the work runs.
  EXPECT_GE(pace.probes(), 3u);
  EXPECT_LE(pace.probes(), 7u);
  // No probes once the work is done.
  const size_t after = pace.probes();
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(pace.probes(), after);
  pace.Sampled(&intervals, [] {});
  EXPECT_EQ(pace.probes(), after);
  EXPECT_EQ(intervals.size(), 2u);
}

TEST(PaceTest, ReferenceWorkIsDeterministic) {
  EXPECT_EQ(ReferenceWork(), ReferenceWork());
}

TEST(FrameTallyTest, SortsResponsesIntoOkShedAndError) {
  using hap::StatusCode;
  using hap::serve::FrameType;
  FrameTally tally;
  tally.sent = 4;
  tally.Answered(FrameType::kPredictOk, StatusCode::kOk);
  tally.Answered(FrameType::kPredictOk, StatusCode::kOk);
  tally.Answered(FrameType::kError, StatusCode::kResourceExhausted);
  EXPECT_FALSE(tally.Balanced());  // one frame still unanswered
  tally.Answered(FrameType::kError, StatusCode::kInvalidArgument);
  EXPECT_TRUE(tally.Balanced());
  EXPECT_EQ(tally.ok, 2);
  EXPECT_EQ(tally.shed, 1);
  EXPECT_EQ(tally.error, 1);

  FrameTally other;
  other.sent = 1;
  other.Answered(FrameType::kPredictOk, StatusCode::kOk);
  tally.Merge(other);
  EXPECT_EQ(tally.sent, 5);
  EXPECT_EQ(tally.ok, 3);
  EXPECT_TRUE(tally.Balanced());

  FrameTally extra;  // an answer nobody asked for is unbalanced too
  extra.Answered(FrameType::kPredictOk, StatusCode::kOk);
  EXPECT_FALSE(extra.Balanced());
}

TEST(VmHwmTest, ParsesKilobytesIntoMebibytes) {
  const std::string status =
      "Name:\thap_served\nVmPeak:\t  812345 kB\nVmHWM:\t   27648 kB\n"
      "VmRSS:\t   20000 kB\n";
  EXPECT_DOUBLE_EQ(ParseVmHwmMb(status).value(), 27.0);
}

TEST(VmHwmTest, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(ParseVmHwmMb("Name:\tx\nVmRSS:\t 100 kB\n").ok());
  EXPECT_FALSE(ParseVmHwmMb("VmHWM:\t abc kB\n").ok());
  EXPECT_FALSE(ParseVmHwmMb("VmHWM:\t 100 MB\n").ok());
  EXPECT_FALSE(ParseVmHwmMb("VmHWM:\t 0 kB\n").ok());
}

TEST(VmHwmTest, ReadsThisProcess) {
  hap::StatusOr<double> mb = ReadVmHwmMb(0);
  ASSERT_TRUE(mb.ok()) << mb.status().ToString();
  EXPECT_GT(mb.value(), 0.0);
}

TEST(SpanTest, ScopedChildrenNestInsideTheirParent) {
  SpanRecorder spans(true);
  {
    ScopedSpan parent(&spans, "parent", -1, 7);
    ScopedSpan child(&spans, "child", parent.index(), 7);
    ScopedSpan grandchild(&spans, "grandchild", child.index(), 7);
  }
  EXPECT_EQ(spans.size(), 3u);
  EXPECT_TRUE(spans.CheckNesting().ok());
  EXPECT_EQ(spans.DurationsNs("child").size(), 1u);
}

TEST(SpanTest, ChildClosingAfterItsParentIsRejected) {
  SpanRecorder spans(true);
  const int parent = spans.Begin("parent", -1, 1);
  const int child = spans.Begin("child", parent, 1);
  spans.End(parent);
  spans.End(child);
  EXPECT_FALSE(spans.CheckNesting().ok());

  SpanRecorder stamped(true);
  const int p = stamped.Add("parent", 100, 200, -1, 1, 0);
  stamped.Add("child", 150, 250, p, 1, 0);
  EXPECT_FALSE(stamped.CheckNesting().ok());
}

TEST(SpanTest, UnclosedSpanIsRejected) {
  SpanRecorder spans(true);
  spans.Begin("open", -1, 1);
  EXPECT_FALSE(spans.CheckNesting().ok());
}

TEST(SpanTest, DisabledRecorderRecordsNothing) {
  SpanRecorder spans(false);
  {
    ScopedSpan s(&spans, "ignored");
    EXPECT_EQ(s.index(), -1);
  }
  EXPECT_EQ(spans.Add("ignored", 1, 2, -1, 0, 0), -1);
  EXPECT_EQ(spans.size(), 0u);
  EXPECT_TRUE(spans.CheckNesting().ok());
}

TEST(SpanTest, WritesChromeTraceJson) {
  SpanRecorder spans(true);
  {
    ScopedSpan parent(&spans, "parent", -1, 3);
    ScopedSpan child(&spans, "child", parent.index(), 3, 2);
  }
  const std::string path = ::testing::TempDir() + "/perfbench_spans.json";
  ASSERT_TRUE(spans.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  hap::StatusOr<hap::JsonValue> json = hap::ParseJson(text.str());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const hap::JsonValue* events = json.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array().size(), 2u);
  EXPECT_EQ(events->array()[1].Find("name")->string_value(), "child");
  std::remove(path.c_str());
}

TEST(ScrapeTest, WindowReadsCounterAndSketchDeltas) {
  hap::obs::SetMetricsEnabled(true);
  hap::obs::Counter* counter = hap::obs::GetCounter("perfbench.test.count");
  hap::obs::Sketch* sketch = hap::obs::GetSketch("perfbench.test.ns");
  hap::obs::Histogram* histogram =
      hap::obs::GetHistogram("perfbench.test.hist_ns");
  counter->Add(5);
  sketch->Record(1'000'000);
  const hap::obs::SketchSnapshot sketch_before =
      hap::obs::SnapshotSketch("perfbench.test.ns");
  const Scrape before = ScrapeSelf();
  counter->Add(3);
  for (uint64_t v = 1; v <= 1000; ++v) {
    sketch->Record(v * 1000);
    histogram->Record(v * 1000);
  }
  const Window window(before, ScrapeSelf());
  EXPECT_DOUBLE_EQ(window.Counter("perfbench.test.count"), 3.0);
  EXPECT_DOUBLE_EQ(window.Count("perfbench.test.ns"), 1000.0);
  const double expected = hap::obs::SnapshotSketch("perfbench.test.ns")
                              .DeltaSince(sketch_before)
                              .Quantile(0.5);
  EXPECT_DOUBLE_EQ(window.SketchQuantile("perfbench.test.ns", 0.5), expected);
  EXPECT_NEAR(window.SketchQuantile("perfbench.test.ns", 0.5), 500'000,
              0.02 * 500'000);
  // Power-of-two buckets: within a factor of two.
  const double hist_p50 =
      window.HistogramQuantile("perfbench.test.hist_ns", 0.5);
  EXPECT_GT(hist_p50, 250'000);
  EXPECT_LT(hist_p50, 1'000'000);
  EXPECT_DOUBLE_EQ(window.Counter("perfbench.test.never"), 0.0);

  Window twice = window;
  twice.Merge(window);
  EXPECT_DOUBLE_EQ(twice.Counter("perfbench.test.count"), 6.0);
  EXPECT_DOUBLE_EQ(twice.Count("perfbench.test.ns"), 2000.0);
  EXPECT_NEAR(twice.SketchQuantile("perfbench.test.ns", 0.5), expected,
              0.02 * expected);
}

TEST(ScrapeTest, RejectsMalformedExposition) {
  EXPECT_FALSE(ParsePrometheus("hap_x notanumber\n").ok());
  EXPECT_TRUE(ParsePrometheus("# TYPE hap_x counter\nhap_x 4\n").ok());
  EXPECT_EQ(PromName("serve.cache.hit"), "hap_serve_cache_hit");
}

}  // namespace
}  // namespace perfbench
