#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hap::bench {

int FastOr(int fast_value, int value) {
  return std::getenv("HAP_BENCH_FAST") != nullptr ? fast_value : value;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void JsonWriter::Prefix(const std::string* key) {
  if (needs_comma_) out_ += ",";
  if (!out_.empty()) out_ += "\n";
  out_.append(static_cast<size_t>(depth_) * 2, ' ');
  if (key != nullptr) {
    out_ += "\"" + *key + "\": ";
  }
}

void JsonWriter::BeginObject() {
  Prefix(nullptr);
  out_ += "{";
  ++depth_;
  needs_comma_ = false;
}

void JsonWriter::BeginObject(const std::string& key) {
  Prefix(&key);
  out_ += "{";
  ++depth_;
  needs_comma_ = false;
}

void JsonWriter::BeginArray() {
  Prefix(nullptr);
  out_ += "[";
  ++depth_;
  needs_comma_ = false;
}

void JsonWriter::BeginArray(const std::string& key) {
  Prefix(&key);
  out_ += "[";
  ++depth_;
  needs_comma_ = false;
}

void JsonWriter::EndObject() {
  --depth_;
  out_ += "\n";
  out_.append(static_cast<size_t>(depth_) * 2, ' ');
  out_ += "}";
  needs_comma_ = true;
}

void JsonWriter::EndArray() {
  --depth_;
  out_ += "\n";
  out_.append(static_cast<size_t>(depth_) * 2, ' ');
  out_ += "]";
  needs_comma_ = true;
}

void JsonWriter::Field(const std::string& key, double value) {
  Prefix(&key);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out_ += buffer;
  needs_comma_ = true;
}

void JsonWriter::Field(const std::string& key, int value) {
  Prefix(&key);
  out_ += std::to_string(value);
  needs_comma_ = true;
}

void JsonWriter::Field(const std::string& key, bool value) {
  Prefix(&key);
  out_ += value ? "true" : "false";
  needs_comma_ = true;
}

void JsonWriter::Field(const std::string& key, const std::string& value) {
  Prefix(&key);
  out_ += "\"" + value + "\"";
  needs_comma_ = true;
}

bool JsonWriter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(out_.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace hap::bench
