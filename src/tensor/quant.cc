#include "tensor/quant.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/matmul_kernels.h"

namespace hap {

namespace {

thread_local Precision t_precision = Precision::kFp32;
thread_local const QuantScales* t_scales = nullptr;
thread_local CalibrationObserver* t_observer = nullptr;

}  // namespace

bool ParsePrecision(const std::string& text, Precision* out) {
  if (text == "fp32") {
    *out = Precision::kFp32;
    return true;
  }
  if (text == "int8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "fp32";
}

QuantScales QuantScales::Build(const std::vector<QuantScaleEntry>& entries,
                               const std::vector<Tensor>& params) {
  QuantScales scales;
  for (const QuantScaleEntry& entry : entries) {
    if (entry.param_index >= params.size()) continue;
    const Tensor& weight = params[entry.param_index];
    WeightQuant wq;
    wq.act_absmax = entry.act_absmax;
    wq.k = weight.rows();
    wq.n = weight.cols();
    // The serialized absmax is authoritative (it was measured on these
    // exact weights when the checkpoint was written); an all-zero weight
    // keeps scale 1 so dequant stays finite.
    wq.weight_scale =
        entry.weight_absmax > 0.0f ? entry.weight_absmax / 127.0f : 1.0f;
    wq.packed.resize(
        static_cast<size_t>(kernels::Int8PackedBCount(wq.k, wq.n)));
    kernels::PackBInt8Panels(weight.data(), wq.k, wq.n,
                             1.0f / wq.weight_scale, wq.packed.data());
    scales.by_impl_.emplace(weight.impl_ptr().get(), std::move(wq));
    scales.entries_.push_back(entry);
  }
  return scales;
}

const WeightQuant* QuantScales::Find(const void* weight_impl) const {
  auto it = by_impl_.find(weight_impl);
  return it == by_impl_.end() ? nullptr : &it->second;
}

PrecisionScope::PrecisionScope(Precision precision, const QuantScales* scales)
    : prev_precision_(t_precision), prev_scales_(t_scales) {
  t_precision = precision;
  t_scales = scales;
}

PrecisionScope::~PrecisionScope() {
  t_precision = prev_precision_;
  t_scales = prev_scales_;
}

Precision PrecisionScope::Current() { return t_precision; }

const QuantScales* PrecisionScope::CurrentScales() { return t_scales; }

CalibrationObserver::CalibrationObserver() : prev_(t_observer) {
  t_observer = this;
}

CalibrationObserver::~CalibrationObserver() { t_observer = prev_; }

CalibrationObserver* CalibrationObserver::Current() { return t_observer; }

void CalibrationObserver::Record(const void* weight_impl, float act_absmax) {
  float& slot = absmax_[weight_impl];
  slot = std::max(slot, act_absmax);
}

std::vector<QuantScaleEntry> CalibrationObserver::Entries(
    const std::vector<Tensor>& params) const {
  std::vector<QuantScaleEntry> entries;
  for (size_t i = 0; i < params.size(); ++i) {
    auto it = absmax_.find(params[i].impl_ptr().get());
    if (it == absmax_.end()) continue;
    QuantScaleEntry entry;
    entry.param_index = static_cast<uint32_t>(i);
    entry.act_absmax = it->second;
    entry.weight_absmax = kernels::AbsMax(params[i].data(), params[i].size());
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace hap
