#ifndef HAP_BENCH_BENCH_COMMON_H_
#define HAP_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "train/model_zoo.h"

namespace hap::bench {

using hap::ClassifierMethodNames;
using hap::DefaultHapConfig;
using hap::MakeEmbedderByName;

/// Scales a benchmark workload down when HAP_BENCH_FAST is set in the
/// environment (useful for smoke runs); returns `value` or `fast_value`.
int FastOr(int fast_value, int value);

/// Linear-interpolated quantile q in [0, 1] of `values` (non-empty): the
/// median and quartiles the benches report over interleaved replays.
double Quantile(std::vector<double> values, double q);

/// Minimal dependency-free JSON emitter for the BENCH_*.json result files
/// that track the perf trajectory across PRs. Build the document with
/// nested Begin/End calls and Field() leaves; keys keep insertion order so
/// diffs between runs stay line-aligned.
class JsonWriter {
 public:
  /// Anonymous object/array: top level or array element.
  void BeginObject();
  void BeginArray();
  /// Keyed object/array member.
  void BeginObject(const std::string& key);
  void BeginArray(const std::string& key);
  void EndObject();
  void EndArray();

  void Field(const std::string& key, double value);
  void Field(const std::string& key, int value);
  void Field(const std::string& key, bool value);
  void Field(const std::string& key, const std::string& value);

  const std::string& str() const { return out_; }
  /// Writes the document (plus trailing newline) to `path`; returns false
  /// and leaves no partial file on open failure.
  bool WriteFile(const std::string& path) const;

 private:
  void Prefix(const std::string* key);

  std::string out_;
  int depth_ = 0;
  bool needs_comma_ = false;
};

}  // namespace hap::bench

#endif  // HAP_BENCH_BENCH_COMMON_H_
