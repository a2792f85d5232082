// perfbench_runner: runs one benchmark workload and prints its result.
//
//   perfbench_runner --workload serve_replay|train_hap|embed_large
//                    --seed N --seconds S --trace 0|1
//                    --served path/to/hap_served --work-dir dir
//                    [--trace-file path]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; with --trace 0 the metrics are the
// end-to-end ones, with --trace 1 the per-layer ones, and the traced run
// also writes its spans as Chrome trace-event JSON to --trace-file. A
// failed output check prints "check failed: <check>" on standard error,
// prints no result and exits 1. perfbench/run.py builds the binaries and
// supplies --served, --work-dir and --trace-file.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace {

constexpr char kUsage[] =
    "usage: perfbench_runner --workload NAME --seed N --seconds S "
    "--trace 0|1 --served PATH --work-dir DIR [--trace-file PATH]\n";

int UsageError(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  hap::StatusOr<hap::Flags> parsed = hap::Flags::Parse(
      argc, argv, 1,
      {"workload", "seed", "seconds", "trace", "served", "work-dir",
       "trace-file"});
  if (!parsed.ok()) return UsageError(parsed.status().message());
  const hap::Flags& flags = parsed.value();
  RunConfig config;
  config.workload = flags.GetString("workload", "");
  hap::StatusOr<uint64_t> seed = flags.GetUint64("seed", 0);
  hap::StatusOr<int> seconds = flags.GetInt("seconds", 10);
  hap::StatusOr<int> trace = flags.GetInt("trace", 0);
  if (!seed.ok() || !seconds.ok() || !trace.ok() || seconds.value() < 1 ||
      (trace.value() != 0 && trace.value() != 1)) {
    return UsageError("--seed, --seconds (>= 1) and --trace (0|1) must be "
                      "integers");
  }
  config.seed = seed.value();
  config.seconds = seconds.value();
  config.trace = trace.value() == 1;
  config.served_binary = flags.GetString("served", "");
  config.work_dir = flags.GetString("work-dir", "");
  const std::string trace_file = flags.GetString("trace-file", "");
  if (config.work_dir.empty() || (config.trace && trace_file.empty())) {
    return UsageError("--work-dir (and --trace-file with --trace 1) needed");
  }

  hap::SetNumThreads(kPoolThreads);
  SpanRecorder spans(config.trace);
  Report report;
  try {
    if (config.workload == "serve_replay") {
      if (config.trace && config.served_binary.empty()) {
        return UsageError("--served needed");
      }
      RunServeReplay(config, &report, &spans);
    } else if (config.workload == "train_hap") {
      RunTrainHap(config, &report, &spans);
    } else if (config.workload == "embed_large") {
      RunEmbedLarge(config, &report, &spans);
    } else {
      return UsageError("unknown workload '" + config.workload + "'");
    }
    if (config.trace) {
      hap::Status nested = spans.CheckNesting();
      Require(nested.ok(), "span nesting", nested.message());
      hap::Status written = spans.WriteChromeTrace(trace_file);
      Require(written.ok(), "span file", written.message());
      std::printf("spans: %zu written to %s\n", spans.size(),
                  trace_file.c_str());
    }
    report.Print(config.trace);
  } catch (const CheckFailed& failed) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failed.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
