// The benchmark's metric definitions and its one-line JSON result.
#ifndef PERFBENCH_RUNNER_REPORT_H_
#define PERFBENCH_RUNNER_REPORT_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {

/// A failed output check. It names the check, ends the run with a
/// non-zero exit and no result line, and never becomes a metric value.
struct CheckFailed : std::runtime_error {
  CheckFailed(const std::string& check, const std::string& detail)
      : std::runtime_error(check + ": " + detail) {}
};

/// Throws CheckFailed(check, detail) unless `ok`.
void Require(bool ok, const std::string& check, const std::string& detail);

struct MetricDef {
  const char* name;
  const char* unit;
  /// What the metric is and, for per-layer metrics, which end-to-end
  /// metric it should move on which workload.
  const char* meaning;
};

/// Collects metric values and operation counts for one run.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints every metric of the run's table (end-to-end, or per-layer
  /// when `trace`), one per line for a reader, then the result as the
  /// last line of standard output. A metric of the table the workload
  /// never set is a benchmark bug and aborts the run.
  void Print(bool trace) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_REPORT_H_
