#include "tensor/quant.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/matmul_kernels.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace hap {
namespace {

// Reference product with double accumulation — the ground truth the
// reduced-precision kernels are error-bounded against.
std::vector<float> RefMatMul(const std::vector<float>& a,
                             const std::vector<float>& b, int m, int k,
                             int n) {
  std::vector<float> out(static_cast<size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<size_t>(i) * k + p]) *
               static_cast<double>(b[static_cast<size_t>(p) * n + j]);
      }
      out[static_cast<size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return out;
}

std::vector<float> RandomVec(size_t count, Rng* rng, float scale) {
  std::vector<float> v(count);
  for (float& x : v) x = scale * (rng->Uniform() * 2.0f - 1.0f);
  return v;
}

// Worst-case |error| of the symmetric-int8 product: each operand's
// quantization error is at most scale/2 per element, so the dot product
// over k terms is off by at most this (plus the cross term).
float Int8ErrorBound(float a_absmax, float b_absmax, int k) {
  const float a_scale = a_absmax > 0.0f ? a_absmax / 127.0f : 1.0f;
  const float b_scale = b_absmax > 0.0f ? b_absmax / 127.0f : 1.0f;
  return static_cast<float>(k) *
             (0.5f * a_scale * b_absmax + 0.5f * b_scale * a_absmax +
              0.25f * a_scale * b_scale) +
         1e-5f;
}

// --- raw kernels -----------------------------------------------------

TEST(QuantKernelsTest, QuantizeSymmetricClampsAndZeroesNaN) {
  const float src[] = {0.0f, 1.0f, -1.0f, 200.0f, -200.0f,
                       std::numeric_limits<float>::quiet_NaN()};
  int16_t dst[6] = {99, 99, 99, 99, 99, 99};
  kernels::QuantizeSymmetric(src, 6, 1.0f, dst);
  EXPECT_EQ(dst[0], 0);
  EXPECT_EQ(dst[1], 1);
  EXPECT_EQ(dst[2], -1);
  EXPECT_EQ(dst[3], 127);   // clamped
  EXPECT_EQ(dst[4], -127);  // symmetric clamp, never -128
  EXPECT_EQ(dst[5], 0);     // NaN maps to zero
}

TEST(QuantKernelsTest, AbsMaxHandlesEmptyAndNegatives) {
  EXPECT_EQ(kernels::AbsMax(nullptr, 0), 0.0f);
  const float v[] = {0.5f, -3.0f, 2.0f};
  EXPECT_EQ(kernels::AbsMax(v, 3), 3.0f);
}

TEST(QuantKernelsTest, Int8GemmMatchesReferenceAcrossShapes) {
  // Tile boundaries and degenerate shapes: m around the 1x4 kernel's
  // column panel, k around the 32-lane depth quantum, n around the
  // 4-column unroll.
  const int ms[] = {1, 2, 7, 8, 13};
  const int ks[] = {1, 15, 31, 32, 33, 64, 100};
  const int ns[] = {1, 3, 4, 5, 17};
  Rng rng(1234);
  for (int m : ms) {
    for (int k : ks) {
      for (int n : ns) {
        const std::vector<float> a =
            RandomVec(static_cast<size_t>(m) * k, &rng, 2.0f);
        const std::vector<float> b =
            RandomVec(static_cast<size_t>(k) * n, &rng, 1.5f);
        const float a_absmax = kernels::AbsMax(a.data(), a.size());
        const float b_absmax = kernels::AbsMax(b.data(), b.size());
        const float a_scale = a_absmax / 127.0f;
        const float b_scale = b_absmax / 127.0f;
        const int64_t k_pad = kernels::RoundUpK(k);
        std::vector<int16_t> aq(static_cast<size_t>(m) * k_pad);
        std::vector<int16_t> bq(
      static_cast<size_t>(kernels::Int8PackedBCount(k, n)));
        kernels::PackAInt8(a.data(), m, k, 1.0f / a_scale, aq.data());
        kernels::PackBInt8Panels(b.data(), k, n, 1.0f / b_scale,
                                     bq.data());
        std::vector<float> out(static_cast<size_t>(m) * n, -1e9f);
        kernels::Int8GemmRows(aq.data(), bq.data(), out.data(), k_pad, n,
                              a_scale * b_scale, 0, m);
        const std::vector<float> ref = RefMatMul(a, b, m, k, n);
        const float bound = Int8ErrorBound(a_absmax, b_absmax, k);
        for (size_t i = 0; i < out.size(); ++i) {
          ASSERT_NEAR(out[i], ref[i], bound)
              << "m=" << m << " k=" << k << " n=" << n << " flat=" << i;
        }
      }
    }
  }
}

// --- op dispatch -----------------------------------------------------

// A shape comfortably past ShapeWantsInt8's work threshold.
Tensor BigActivation(Rng* rng) { return Tensor::Randn(64, 64, rng); }
Tensor BigWeight(Rng* rng, bool requires_grad = false) {
  return Tensor::Randn(64, 64, rng, 1.0f, requires_grad);
}

TEST(QuantOpsTest, ScopeDefaultsToFp32) {
  EXPECT_EQ(PrecisionScope::Current(), Precision::kFp32);
  EXPECT_EQ(PrecisionScope::CurrentScales(), nullptr);
  {
    PrecisionScope outer(Precision::kInt8);
    EXPECT_EQ(PrecisionScope::Current(), Precision::kInt8);
    {
      PrecisionScope inner(Precision::kFp32);
      EXPECT_EQ(PrecisionScope::Current(), Precision::kFp32);
    }
    EXPECT_EQ(PrecisionScope::Current(), Precision::kInt8);
  }
  EXPECT_EQ(PrecisionScope::Current(), Precision::kFp32);
}

TEST(QuantOpsTest, ParsePrecisionRoundTrips) {
  Precision p = Precision::kFp32;
  EXPECT_TRUE(ParsePrecision("int8", &p));
  EXPECT_EQ(p, Precision::kInt8);
  EXPECT_TRUE(ParsePrecision("fp32", &p));
  EXPECT_EQ(p, Precision::kFp32);
  EXPECT_FALSE(ParsePrecision("fp16", &p));
  EXPECT_FALSE(ParsePrecision("bf16", &p));
  EXPECT_EQ(p, Precision::kFp32);
  EXPECT_STREQ(PrecisionName(Precision::kInt8), "int8");
  EXPECT_STREQ(PrecisionName(Precision::kFp32), "fp32");
}

TEST(QuantOpsTest, Int8MatMulBoundedErrorVsFp32) {
  Rng rng(7);
  Tensor a = BigActivation(&rng);
  Tensor b = BigWeight(&rng);
  Tensor ref = MatMul(a, b);
  PrecisionScope scope(Precision::kInt8);
  Tensor quant = MatMul(a, b);
  const float bound = Int8ErrorBound(kernels::AbsMax(a.data(), a.size()),
                                     kernels::AbsMax(b.data(), b.size()),
                                     a.cols());
  for (int i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(quant.data()[i], ref.data()[i], bound) << "flat " << i;
  }
}

TEST(QuantOpsTest, SmallShapesFallThroughToFp32UnderInt8Scope) {
  Rng rng(9);
  Tensor a = Tensor::Randn(2, 3, &rng);
  Tensor b = Tensor::Randn(3, 2, &rng);
  Tensor ref = MatMul(a, b);
  PrecisionScope scope(Precision::kInt8);
  Tensor out = MatMul(a, b);
  for (int i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(out.data()[i], ref.data()[i]) << "flat " << i;
  }
}

TEST(QuantOpsTest, QuantizedMatMulRefusesTapedTensors) {
  Rng rng(10);
  Tensor a = BigActivation(&rng);
  Tensor b = BigWeight(&rng, /*requires_grad=*/true);
  PrecisionScope scope(Precision::kInt8);
  // Grad is globally enabled and b requires grad: the forward would be
  // taped with non-deterministic bits. Must die, not corrupt training.
  EXPECT_DEATH(MatMul(a, b), "refuses taped tensors");
}

TEST(QuantOpsTest, QuantizedMatMulAllowedUnderNoGradGuard) {
  Rng rng(11);
  Tensor a = BigActivation(&rng);
  Tensor b = BigWeight(&rng, /*requires_grad=*/true);
  NoGradGuard guard;
  PrecisionScope scope(Precision::kInt8);
  Tensor out = MatMul(a, b);  // weights keep requires_grad in eval
  EXPECT_EQ(out.rows(), 64);
  EXPECT_FALSE(out.requires_grad());
}

// --- calibration + scales -------------------------------------------

TEST(QuantCalibrationTest, ObserverRecordsActivationAbsmaxPerWeight) {
  Rng rng(20);
  Tensor w = Tensor::Randn(16, 8, &rng, 1.0f, true);
  Tensor act = Tensor::FromVector(2, 16, [] {
    std::vector<float> v(32, 0.25f);
    v[5] = -3.5f;  // the absmax
    return v;
  }());
  CalibrationObserver observer;
  {
    NoGradGuard guard;
    (void)MatMul(act, w);
    // Activation-activation products are not calibration sites.
    (void)MatMul(act, Tensor::Randn(16, 8, &rng));
    // Nor are weights no product ever runs int8 with: too few columns
    // (n < 8) or too shallow (k < 16).
    (void)MatMul(act, Tensor::Randn(16, 7, &rng, 1.0f, true));
    (void)MatMul(SliceCols(act, 0, 15), Tensor::Randn(15, 8, &rng, 1.0f,
                                                      true));
  }
  EXPECT_EQ(observer.observed_sites(), 1u);
  const std::vector<QuantScaleEntry> entries =
      observer.Entries({Tensor::Randn(1, 1, &rng, 1.0f, true), w});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].param_index, 1u);
  EXPECT_EQ(entries[0].act_absmax, 3.5f);
  EXPECT_EQ(entries[0].weight_absmax,
            kernels::AbsMax(w.data(), w.size()));
}

TEST(QuantCalibrationTest, QuantScalesBuildPacksReferencedWeights) {
  Rng rng(21);
  Tensor w = Tensor::Randn(40, 6, &rng, 1.0f, true);
  Tensor other = Tensor::Randn(3, 3, &rng, 1.0f, true);
  std::vector<QuantScaleEntry> entries(1);
  entries[0].param_index = 0;
  entries[0].act_absmax = 2.0f;
  entries[0].weight_absmax = kernels::AbsMax(w.data(), w.size());
  QuantScales scales = QuantScales::Build(entries, {w, other});
  ASSERT_FALSE(scales.empty());
  const WeightQuant* wq = scales.Find(w.impl_ptr().get());
  ASSERT_NE(wq, nullptr);
  EXPECT_EQ(wq->k, 40);
  EXPECT_EQ(wq->n, 6);
  EXPECT_EQ(wq->act_absmax, 2.0f);
  EXPECT_NEAR(wq->weight_scale, entries[0].weight_absmax / 127.0f, 1e-7f);
  EXPECT_EQ(wq->packed.size(),
            static_cast<size_t>(kernels::Int8PackedBCount(40, 6)));
  EXPECT_EQ(scales.Find(other.impl_ptr().get()), nullptr);
  // An out-of-range index is ignored, not fatal.
  entries[0].param_index = 17;
  EXPECT_TRUE(QuantScales::Build(entries, {w}).empty());
}

TEST(QuantCalibrationTest, PrequantizedScalesMatchDynamicPath) {
  Rng rng(22);
  Tensor act = BigActivation(&rng);
  Tensor w = BigWeight(&rng, /*requires_grad=*/true);
  NoGradGuard guard;
  std::vector<QuantScaleEntry> entries;
  {
    CalibrationObserver observer;
    (void)MatMul(act, w);
    entries = observer.Entries({w});
  }
  QuantScales scales = QuantScales::Build(entries, {w});
  Tensor dynamic, prequant;
  {
    PrecisionScope scope(Precision::kInt8);
    dynamic = MatMul(act, w);
  }
  {
    PrecisionScope scope(Precision::kInt8, &scales);
    prequant = MatMul(act, w);
  }
  // Calibration saw this exact activation, so both paths quantize with
  // identical scales and must agree bit for bit.
  for (int i = 0; i < dynamic.size(); ++i) {
    ASSERT_EQ(prequant.data()[i], dynamic.data()[i]) << "flat " << i;
  }
}

TEST(QuantCalibrationTest, ScalesRoundTripThroughCheckpoint) {
  Rng rng(23);
  Tensor w1 = Tensor::Randn(4, 3, &rng, 1.0f, true);
  Tensor w2 = Tensor::Randn(2, 5, &rng, 1.0f, true);
  std::vector<QuantScaleEntry> scales(2);
  scales[0] = {0, 1.5f, 0.75f};
  scales[1] = {1, 0.0f, 2.25f};
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({w1, w2}, &buffer, &scales).ok());

  std::vector<Tensor> loaded = {Tensor::Zeros(4, 3, true),
                                Tensor::Zeros(2, 5, true)};
  std::vector<QuantScaleEntry> out = {{9, 9.0f, 9.0f}};  // must be replaced
  ASSERT_TRUE(LoadParameters(&buffer, &loaded, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].param_index, 0u);
  EXPECT_EQ(out[0].act_absmax, 1.5f);
  EXPECT_EQ(out[0].weight_absmax, 0.75f);
  EXPECT_EQ(out[1].param_index, 1u);
  EXPECT_EQ(out[1].act_absmax, 0.0f);
  EXPECT_EQ(out[1].weight_absmax, 2.25f);
  EXPECT_EQ(loaded[0].data()[0], w1.data()[0]);

  // Checkpoint info reports the v2 section.
  std::stringstream again(buffer.str());
  StatusOr<CheckpointInfo> info = ReadCheckpointInfo(&again);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, 2u);
  EXPECT_EQ(info.value().num_scales, 2u);
}

TEST(QuantCalibrationTest, V1CheckpointsLoadWithEmptyScales) {
  Rng rng(24);
  Tensor w = Tensor::Randn(2, 2, &rng, 1.0f, true);
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({w}, &buffer).ok());  // no scales => v1
  std::vector<Tensor> loaded = {Tensor::Zeros(2, 2, true)};
  std::vector<QuantScaleEntry> out = {{3, 1.0f, 1.0f}};
  ASSERT_TRUE(LoadParameters(&buffer, &loaded, &out).ok());
  EXPECT_TRUE(out.empty());  // cleared, not left stale

  std::stringstream again(buffer.str());
  StatusOr<CheckpointInfo> info = ReadCheckpointInfo(&again);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().version, 1u);
  EXPECT_EQ(info.value().num_scales, 0u);
}

TEST(QuantCalibrationTest, HostileScaleSectionsRejected) {
  Rng rng(25);
  Tensor w = Tensor::Randn(2, 2, &rng, 1.0f, true);
  std::vector<QuantScaleEntry> scales = {{0, 1.0f, 1.0f}};
  std::stringstream buffer;
  ASSERT_TRUE(SaveParameters({w}, &buffer, &scales).ok());
  const std::string bytes = buffer.str();

  const auto load = [](const std::string& data) {
    std::stringstream stream(data);
    std::vector<Tensor> params = {Tensor::Zeros(2, 2, true)};
    std::vector<QuantScaleEntry> out;
    return LoadParameters(&stream, &params, &out);
  };
  // Truncation anywhere inside the scale section fails cleanly.
  EXPECT_FALSE(load(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(load(bytes.substr(0, bytes.size() - 11)).ok());
  // Trailing garbage after the section is rejected.
  EXPECT_FALSE(load(bytes + "x").ok());
  // A scale index past the tensor count is hostile.
  std::string corrupt = bytes;
  const uint32_t bad_index = 7;
  std::memcpy(corrupt.data() + corrupt.size() - 12, &bad_index, 4);
  EXPECT_FALSE(load(corrupt).ok());
  // Saving an out-of-range index is refused too.
  std::vector<QuantScaleEntry> bad = {{5, 1.0f, 1.0f}};
  std::stringstream sink;
  EXPECT_FALSE(SaveParameters({w}, &sink, &bad).ok());
  // An absmax that is NaN, infinite or negative, in either field, fails
  // the load with InvalidArgument and is refused on save. An infinite
  // weight scale would turn every dequantized output into NaN.
  const float hostile[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(), -1.0f};
  for (const size_t field_offset : {8u, 4u}) {  // act, weight absmax
    for (const float value : hostile) {
      SCOPED_TRACE("offset " + std::to_string(field_offset) + " value " +
                   std::to_string(value));
      corrupt = bytes;
      std::memcpy(corrupt.data() + corrupt.size() - field_offset, &value, 4);
      EXPECT_EQ(load(corrupt).code(), StatusCode::kInvalidArgument);
      QuantScaleEntry entry = {0, 1.0f, 1.0f};
      (field_offset == 8u ? entry.act_absmax : entry.weight_absmax) = value;
      bad = {entry};
      std::stringstream refused;
      EXPECT_EQ(SaveParameters({w}, &refused, &bad).code(),
                StatusCode::kInvalidArgument);
    }
  }
  // Zero stays valid in both fields: "not observed" for the activation,
  // an all-zero weight for the weight.
  corrupt = bytes;
  const float zero = 0.0f;
  std::memcpy(corrupt.data() + corrupt.size() - 8, &zero, 4);
  std::memcpy(corrupt.data() + corrupt.size() - 4, &zero, 4);
  EXPECT_TRUE(load(corrupt).ok());
}

}  // namespace
}  // namespace hap
