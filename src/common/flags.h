#ifndef HAP_COMMON_FLAGS_H_
#define HAP_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace hap {

/// Strict parser for `--name value` command lines.
///
/// Every token from `first` onward must be a `--name` drawn from the
/// allowed set, followed by its value. Unknown flags, flags missing their
/// value, duplicate flags, and stray positional tokens are all errors —
/// a typo like `--chekpoint out.bin` must fail up front, not train for an
/// hour and silently drop the checkpoint.
class Flags {
 public:
  /// Parses argv[first..argc). `allowed` lists valid flag names without
  /// the leading dashes.
  static StatusOr<Flags> Parse(int argc, const char* const* argv, int first,
                               const std::vector<std::string>& allowed);

  /// True if `name` was supplied on the command line.
  bool Has(const std::string& name) const;

  /// Value of `name`, or `fallback` when absent.
  std::string GetString(const std::string& name, std::string fallback) const;

  /// Integer value of `name`, or `fallback` when absent. The whole value
  /// must parse — `--epochs 30x` is an error, not 30 — and a supplied
  /// value below `min` is an error too.
  StatusOr<int> GetInt(const std::string& name, int fallback,
                       int min = std::numeric_limits<int>::min()) const;
  StatusOr<uint64_t> GetUint64(const std::string& name,
                               uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace hap

#endif  // HAP_COMMON_FLAGS_H_
