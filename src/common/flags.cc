#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace hap {

namespace {

std::string JoinAllowed(const std::vector<std::string>& allowed) {
  std::string joined;
  for (const std::string& name : allowed) {
    if (!joined.empty()) joined += ", ";
    joined += "--" + name;
  }
  return joined;
}

}  // namespace

StatusOr<Flags> Flags::Parse(int argc, const char* const* argv, int first,
                             const std::vector<std::string>& allowed) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + token +
                                     "' (flags are --name value pairs)");
    }
    const std::string name = token.substr(2);
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      return Status::InvalidArgument("unknown flag --" + name +
                                     "; valid flags: " + JoinAllowed(allowed));
    }
    if (flags.values_.count(name) > 0) {
      return Status::InvalidArgument("duplicate flag --" + name);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + name + " is missing a value");
    }
    flags.values_[name] = argv[++i];
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             std::string fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

StatusOr<int> Flags::GetInt(const std::string& name, int fallback,
                            int min) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0' ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("flag --" + name + " wants an integer, got '" +
                                   it->second + "'");
  }
  if (value < min) {
    return Status::InvalidArgument("flag --" + name + " must be >= " +
                                   std::to_string(min) + ", got '" +
                                   it->second + "'");
  }
  return static_cast<int>(value);
}

StatusOr<uint64_t> Flags::GetUint64(const std::string& name,
                                    uint64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (!it->second.empty() && it->second[0] == '-') {
    return Status::InvalidArgument("flag --" + name +
                                   " wants a non-negative integer, got '" +
                                   it->second + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " wants a non-negative integer, got '" +
                                   it->second + "'");
  }
  return static_cast<uint64_t>(value);
}

}  // namespace hap
