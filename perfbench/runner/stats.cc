#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t SamplesBeyond(int64_t n, double q) {
  return n - static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
}

hap::StatusOr<double> SupportedQuantile(std::vector<double> samples,
                                        double q) {
  const auto n = static_cast<int64_t>(samples.size());
  const int64_t beyond = SamplesBeyond(n, q);
  if (n == 0 || beyond < kMinSamplesBeyond) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "quantile %.3f of %lld samples has %lld beyond it; at "
                  "least %lld are required",
                  q, static_cast<long long>(n), static_cast<long long>(beyond),
                  static_cast<long long>(kMinSamplesBeyond));
    return hap::Status::OutOfRange(buf);
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void PerSecond::Add(double now_s, double value) {
  const auto second = static_cast<size_t>(std::max(0.0, now_s - start_s_));
  if (second >= values_.size()) values_.resize(second + 1);
  values_[second].push_back(value);
}

void PerSecond::Finish(double end_s) {
  const auto complete = static_cast<size_t>(std::max(0.0, end_s - start_s_));
  values_.resize(complete);
}

double PerSecond::MedianRate(double unit_s) const {
  std::vector<double> rates;
  for (const std::vector<double>& second : values_) {
    double sum = 0.0;
    for (double v : second) sum += v;
    if (sum > 0.0) {
      rates.push_back(static_cast<double>(second.size()) / (sum * unit_s));
    }
  }
  return rates.empty() ? 0.0 : Median(rates);
}

hap::StatusOr<double> PerSecond::MedianQuantile(double q) const {
  if (values_.empty()) return hap::Status::OutOfRange("no complete second");
  std::vector<double> quantiles;
  for (size_t s = 0; s < values_.size(); ++s) {
    hap::StatusOr<double> v = SupportedQuantile(values_[s], q);
    if (!v.ok()) {
      return hap::Status::OutOfRange("second " + std::to_string(s) + ": " +
                                     v.status().message());
    }
    quantiles.push_back(v.value());
  }
  return Median(quantiles);
}

std::vector<double> BlockwiseMin(const std::vector<double>& samples,
                                 size_t block) {
  if (block == 0 || samples.size() < block) return {};
  std::vector<double> minima(samples.begin(), samples.begin() + block);
  for (size_t lo = block; lo + block <= samples.size(); lo += block) {
    for (size_t i = 0; i < block; ++i) {
      minima[i] = std::min(minima[i], samples[lo + i]);
    }
  }
  return minima;
}

void FrameTally::Answered(hap::serve::FrameType type,
                          hap::StatusCode status) {
  if (type == hap::serve::FrameType::kPredictOk) {
    ++ok;
  } else if (status == hap::StatusCode::kResourceExhausted) {
    ++shed;
  } else {
    ++error;
  }
}

void FrameTally::Merge(const FrameTally& other) {
  sent += other.sent;
  ok += other.ok;
  shed += other.shed;
  error += other.error;
}

hap::StatusOr<double> ParseVmHwmMb(const std::string& proc_status) {
  std::istringstream in(proc_status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    char* end = nullptr;
    const char* digits = line.c_str() + 6;
    const long long kb = std::strtoll(digits, &end, 10);
    while (end != nullptr && *end == ' ') ++end;
    if (end == digits || kb <= 0 || end == nullptr ||
        std::string(end) != "kB") {
      return hap::Status::InvalidArgument("malformed VmHWM line: " + line);
    }
    return static_cast<double>(kb) / 1024.0;
  }
  return hap::Status::NotFound("no VmHWM line in process status");
}

hap::StatusOr<double> ReadVmHwmMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  if (!in) return hap::Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseVmHwmMb(text.str());
}

}  // namespace perfbench
