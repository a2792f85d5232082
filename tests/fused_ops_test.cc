// The four fused coarsening ops (GCont standardisation, MOA, Gumbel soft
// sampling, SymNormalize) against the composed ops of
// coarsening_reference.h: forwards memcmp-equal taped and untaped,
// gradients within 1e-5 relative (Frobenius) for every input and
// parameter, finite-difference checks, gradient bits independent of the
// thread count, no grad buffer for a parent without requires_grad, and
// the size of one HAP training tape. The fused dense layer (Dense)
// against the composed chain of dense_reference.h: forwards and
// gradients bit-equal (NaN payloads aside), at any thread count and
// under an int8 scope.
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "coarsening_reference.h"
#include "common/thread_pool.h"
#include "core/coarsening.h"
#include "core/gumbel.h"
#include "dense_reference.h"
#include "graph/datasets.h"
#include "graph/propagation.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "train/classifier.h"
#include "train/model_zoo.h"
#include "train/prepared.h"

namespace hap {
namespace {

constexpr int kFeatures = 6;
const char* const kVariants[] = {"default", "bilinear_off", "paper_literal",
                                 "gcont_off", "normalize_off"};

CoarseningConfig VariantConfig(const std::string& variant, int clusters) {
  CoarseningConfig config;
  config.in_features = kFeatures;
  config.num_clusters = clusters;
  config.bilinear_moa = variant != "bilinear_off";
  config.paper_literal_relaxation = variant == "paper_literal";
  config.use_gcont = variant != "gcont_off";
  config.normalize_gcont = variant != "normalize_off";
  return config;
}

using reference::SameBitsOrBothNan;
using reference::ZeroLaden;

Tensor Leaf(int rows, int cols, std::vector<float> values) {
  return Tensor::FromVector(rows, cols, std::move(values),
                            /*requires_grad=*/true);
}

// `values` with an infinity in the first all-zero row (row 1), or in row
// 0 when there is only one.
std::vector<float> WithInfInZeroRow(std::vector<float> values, int rows,
                                    int cols) {
  values[static_cast<size_t>(std::min(1, rows - 1)) * cols + cols - 1] =
      std::numeric_limits<float>::infinity();
  return values;
}

// A coarsened-adjacency-like input: nonnegative weights with zero rows,
// -0 entries, and one weight past each clamp bound of GumbelSoftSample.
std::vector<float> AdjacencyLike(int rows, int cols, Rng* rng) {
  std::vector<float> v = ZeroLaden(rows, cols, rng);
  for (float& x : v) x = x == 0.0f ? x : std::abs(x);
  if (rows * cols > 2) {
    v[0] = 2e9f;   // above 1/eps
    v[2] = 1e-12f;  // below eps
  }
  return v;
}

// ‖a − b‖_F / ‖b‖_F, 0 when both are zero.
double RelativeFrobenius(const std::vector<float>& a,
                         const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double diff = 0.0, norm = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    diff += d * d;
    norm += static_cast<double>(b[i]) * b[i];
  }
  if (norm == 0.0) return diff == 0.0 ? 0.0 : INFINITY;
  return std::sqrt(diff / norm);
}

// The gradients of Σ W∘op(leaves) for a fixed random W, one per leaf (an
// empty vector for a leaf Backward gave no grad buffer).
std::vector<std::vector<float>> Gradients(
    const std::function<Tensor()>& op, const std::vector<Tensor>& leaves,
    uint64_t weight_seed) {
  for (Tensor leaf : leaves) leaf.ZeroGrad();
  const Tensor out = op();
  Rng rng(weight_seed);
  const Tensor weights = Tensor::Randn(out.rows(), out.cols(), &rng);
  ReduceSumAll(Mul(out, weights)).Backward();
  std::vector<std::vector<float>> grads;
  for (const Tensor& leaf : leaves) grads.push_back(leaf.grad());
  return grads;
}

// One fused op next to its composed reference over the same leaves.
struct OpCase {
  std::string name;
  std::function<Tensor()> fused;
  std::function<Tensor()> reference;
  std::vector<Tensor> leaves;
};

std::vector<Tensor> Parameters(const CoarseningModule& module) {
  std::vector<Tensor> params;
  module.CollectParameters(&params);
  return params;
}

// The four ops at one (N, N′) point: GCont standardisation and MOA per
// configuration, Gumbel soft sampling on an N×N′ input (eval and
// training, with equally seeded noise), and SymNormalize on N′×N′ and
// N×N inputs. `modules` keeps the modules alive.
std::vector<OpCase> Cases(int n, int clusters,
                          std::vector<std::unique_ptr<CoarseningModule>>*
                              modules) {
  std::vector<OpCase> cases;
  for (const char* variant : kVariants) {
    const CoarseningConfig config = VariantConfig(variant, clusters);
    Rng rng(n * 131 + clusters);
    modules->push_back(std::make_unique<CoarseningModule>(config, &rng));
    const CoarseningModule* module = modules->back().get();
    const std::vector<Tensor> params = Parameters(*module);
    const std::string tag = std::string(variant) + " ";
    if (config.use_gcont) {
      const Tensor h = Leaf(n, kFeatures, ZeroLaden(n, kFeatures, &rng));
      cases.push_back({tag + "gcont", [module, h] {
                         return module->ComputeGCont(h);
                       },
                       [module, h] { return reference::GCont(*module, h); },
                       {h, params[0]}});
    }
    if (std::string(variant) == "normalize_off") continue;
    const int width = config.use_gcont ? clusters : kFeatures;
    const Tensor x = Leaf(n, width, ZeroLaden(n, width, &rng));
    std::vector<Tensor> leaves = {x};
    leaves.insert(leaves.end(), params.begin(), params.end());
    if (config.use_gcont) leaves.erase(leaves.begin() + 1);  // T
    cases.push_back({tag + "moa", [module, x] {
                       return module->ComputeAttention(x);
                     },
                     [module, x] { return reference::Attention(*module, x); },
                     leaves});
  }
  Rng rng(n * 7 + clusters);
  const Tensor adjacency = Leaf(n, clusters, AdjacencyLike(n, clusters, &rng));
  for (const bool training : {false, true}) {
    const uint64_t seed = n * 3 + clusters;
    cases.push_back(
        {std::string("gumbel training=") + (training ? "1" : "0"),
         [adjacency, training, seed] {
           Rng noise(seed);
           return GumbelSoftSample(adjacency, 0.1f, &noise, training);
         },
         [adjacency, training, seed] {
           Rng noise(seed);
           return reference::GumbelSoftSample(adjacency, 0.1f, &noise,
                                              training);
         },
         {adjacency}});
  }
  for (const int size : {clusters, n}) {
    std::vector<float> values = AdjacencyLike(size, size, &rng);
    // A negative self-weight that cancels the added self-loop of an
    // otherwise empty row: its degree is floored at eps.
    if (size > 2) {
      const int row = size - 1;
      for (int c = 0; c < size; ++c) {
        values[static_cast<size_t>(row) * size + c] = 0.0f;
        values[static_cast<size_t>(c) * size + row] = 0.0f;
      }
      values[static_cast<size_t>(row) * size + row] = -1.0f;
    }
    const Tensor a = Leaf(size, size, std::move(values));
    cases.push_back({"sym " + std::to_string(size),
                     [a] { return SymNormalize(a); },
                     [a] { return reference::SymNormalize(a); }, {a}});
  }
  return cases;
}

TEST(FusedOpsTest, ForwardMemcmpEqualToReference) {
  for (int n : {1, 3, 40, 500}) {
    for (int clusters : {1, 8, 32}) {
      std::vector<std::unique_ptr<CoarseningModule>> modules;
      for (const OpCase& op : Cases(n, clusters, &modules)) {
        SCOPED_TRACE(op.name + " N=" + std::to_string(n) +
                     " N'=" + std::to_string(clusters));
        const Tensor expected = op.reference();
        const Tensor taped = op.fused();
        EXPECT_TRUE(taped.requires_grad());
        EXPECT_TRUE(SameBitsOrBothNan(taped, expected));
        NoGradGuard no_grad;
        const Tensor untaped = op.fused();
        EXPECT_FALSE(untaped.requires_grad());
        EXPECT_TRUE(SameBitsOrBothNan(untaped, expected));
      }
    }
  }
}

// Non-finite entries: an infinity in a zero row, where a zero term not
// skipped would make NaN, and NaN weights for soft sampling. Compared
// NaN-aware.
TEST(FusedOpsTest, NonFiniteInputsMatchReference) {
  for (int n : {1, 3, 40}) {
    for (int clusters : {1, 8, 32}) {
      SCOPED_TRACE("N=" + std::to_string(n) +
                   " N'=" + std::to_string(clusters));
      Rng rng(n + clusters);
      for (const char* variant : {"default", "bilinear_off", "paper_literal",
                                  "gcont_off"}) {
        const CoarseningConfig config = VariantConfig(variant, clusters);
        CoarseningModule module(config, &rng);
        const int width = config.use_gcont ? clusters : kFeatures;
        const Tensor x = Tensor::FromVector(
            n, width, WithInfInZeroRow(ZeroLaden(n, width, &rng), n, width));
        EXPECT_TRUE(SameBitsOrBothNan(module.ComputeAttention(x),
                                      reference::Attention(module, x)))
            << variant;
      }
      std::vector<float> weights = AdjacencyLike(n, clusters, &rng);
      weights.back() = std::numeric_limits<float>::quiet_NaN();
      weights = WithInfInZeroRow(std::move(weights), n, clusters);
      const Tensor adjacency = Tensor::FromVector(n, clusters, weights);
      EXPECT_TRUE(SameBitsOrBothNan(
          GumbelSoftSample(adjacency, 0.1f, nullptr, false),
          reference::GumbelSoftSample(adjacency, 0.1f, nullptr, false)));
      const Tensor square = Tensor::FromVector(
          n, n, WithInfInZeroRow(ZeroLaden(n, n, &rng), n, n));
      EXPECT_TRUE(SameBitsOrBothNan(SymNormalize(square),
                                    reference::SymNormalize(square)));
    }
  }
}

TEST(FusedOpsTest, GradientsMatchReference) {
  for (int n : {1, 3, 40, 500}) {
    for (int clusters : {1, 8, 32}) {
      std::vector<std::unique_ptr<CoarseningModule>> modules;
      for (const OpCase& op : Cases(n, clusters, &modules)) {
        SCOPED_TRACE(op.name + " N=" + std::to_string(n) +
                     " N'=" + std::to_string(clusters));
        const auto fused = Gradients(op.fused, op.leaves, 5);
        const auto expected = Gradients(op.reference, op.leaves, 5);
        for (size_t i = 0; i < op.leaves.size(); ++i) {
          EXPECT_LE(RelativeFrobenius(fused[i], expected[i]), 1e-5)
              << "leaf " << i;
        }
      }
    }
  }
}

TEST(FusedOpsTest, GradientBitsIndependentOfThreadCount) {
  const int original = NumThreads();
  std::vector<std::unique_ptr<CoarseningModule>> modules;
  for (const OpCase& op : Cases(500, 32, &modules)) {
    SCOPED_TRACE(op.name);
    SetNumThreads(1);
    const auto serial = Gradients(op.fused, op.leaves, 9);
    SetNumThreads(4);
    const auto parallel = Gradients(op.fused, op.leaves, 9);
    for (size_t i = 0; i < op.leaves.size(); ++i) {
      ASSERT_EQ(serial[i].size(), parallel[i].size());
      EXPECT_EQ(std::memcmp(serial[i].data(), parallel[i].data(),
                            serial[i].size() * sizeof(float)),
                0)
          << "leaf " << i;
    }
  }
  SetNumThreads(original);
}

// Each parent in turn has requires_grad off: it never gets a grad buffer,
// and the other parents' gradients are those of the all-grad run.
TEST(FusedOpsTest, ParentWithoutRequiresGradGetsNoGradBuffer) {
  std::vector<std::unique_ptr<CoarseningModule>> modules;
  for (const OpCase& op : Cases(40, 8, &modules)) {
    if (op.leaves.size() < 2) continue;
    SCOPED_TRACE(op.name);
    const auto all = Gradients(op.fused, op.leaves, 3);
    for (size_t off = 0; off < op.leaves.size(); ++off) {
      Tensor leaf = op.leaves[off];
      leaf.set_requires_grad(false);
      leaf.impl().grad.clear();  // drop the all-grad run's buffer
      const auto partial = Gradients(op.fused, op.leaves, 3);
      EXPECT_TRUE(leaf.grad().empty()) << "leaf " << off;
      for (size_t i = 0; i < op.leaves.size(); ++i) {
        if (i == off) continue;
        EXPECT_EQ(partial[i], all[i]) << "leaf " << i;
      }
      leaf.set_requires_grad(true);
    }
  }
}

TEST(FusedOpsTest, FiniteDifferenceGradients) {
  for (const char* variant : kVariants) {
    SCOPED_TRACE(variant);
    CoarseningConfig config = VariantConfig(variant, 3);
    config.in_features = 4;
    Rng rng(41);
    CoarseningModule module(config, &rng);
    const std::vector<Tensor> params = Parameters(module);
    const Tensor weights = Tensor::Randn(5, 3, &rng);
    if (config.use_gcont) {
      const Tensor h = Tensor::Randn(5, 4, &rng, 1.0f, true);
      const GradCheckResult gcont = CheckGradients(
          [&](const std::vector<Tensor>& in) {
            return ReduceSumAll(Mul(module.ComputeGCont(in[0]), weights));
          },
          {h, params[0]});
      EXPECT_TRUE(gcont.ok) << "gcont " << gcont.max_rel_error;
    }
    if (std::string(variant) == "normalize_off") continue;
    const int width = config.use_gcont ? 3 : 4;
    std::vector<Tensor> inputs = {Tensor::Randn(5, width, &rng, 1.0f, true)};
    inputs.insert(inputs.end(), params.begin(), params.end());
    if (config.use_gcont) inputs.erase(inputs.begin() + 1);  // T
    const GradCheckResult moa = CheckGradients(
        [&](const std::vector<Tensor>& in) {
          return ReduceSumAll(Mul(module.ComputeAttention(in[0]), weights));
        },
        inputs);
    EXPECT_TRUE(moa.ok) << "moa " << moa.max_rel_error;
  }
  Rng rng(43);
  std::vector<float> values(12);
  for (float& v : values) v = static_cast<float>(rng.Uniform(0.5, 2.0));
  const Tensor adjacency = Tensor::FromVector(3, 4, values, true);
  const Tensor weights = Tensor::Randn(3, 4, &rng);
  const GradCheckResult gumbel = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Rng noise(7);
        return ReduceSumAll(
            Mul(GumbelSoftSample(in[0], 0.5f, &noise, true), weights));
      },
      {adjacency});
  EXPECT_TRUE(gumbel.ok) << "gumbel " << gumbel.max_rel_error;
  values.resize(16);
  for (float& v : values) v = static_cast<float>(rng.Uniform(0.1, 1.0));
  const Tensor square = Tensor::FromVector(4, 4, values, true);
  const Tensor square_weights = Tensor::Randn(4, 4, &rng);
  const GradCheckResult sym = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return ReduceSumAll(Mul(SymNormalize(in[0]), square_weights));
      },
      {square});
  EXPECT_TRUE(sym.ok) << "sym " << sym.max_rel_error;
}

// --- Dense ---

constexpr Activation kActivations[] = {Activation::kNone, Activation::kRelu,
                                       Activation::kTanh};

std::string DenseCase(Activation activation, bool bias, int m, int n) {
  const char* const names[] = {"none", "relu", "tanh"};
  return std::string(names[static_cast<int>(activation)]) +
         (bias ? " bias" : " no-bias") + " m=" + std::to_string(m) +
         " n=" + std::to_string(n);
}

// ZeroLaden entries with every special value the epilogue must carry:
// NaN, ±Inf, denormals of both signs and a float with a denormal square,
// one each at a stride of `stride` entries.
std::vector<float> SpecialLaden(int rows, int cols, int stride, Rng* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                            inf,
                            -inf,
                            denorm,
                            -denorm,
                            1e-30f,
                            -0.0f,
                            0.0f};
  std::vector<float> v = ZeroLaden(rows, cols, rng);
  for (size_t e = 0, s = 0; e < v.size(); e += stride, ++s) {
    v[e] = kSpecial[s % (sizeof(kSpecial) / sizeof(kSpecial[0]))];
  }
  return v;
}

// x (m, 6) with a special value every 11 entries, w (6, n) with one every
// 13, and a (1, n) bias that is mostly special values.
struct DenseLeaves {
  Tensor x, w, b;
};

DenseLeaves MakeDenseLeaves(int m, int n, uint64_t seed) {
  Rng rng(seed);
  return {Leaf(m, 6, SpecialLaden(m, 6, 11, &rng)),
          Leaf(6, n, SpecialLaden(6, n, 13, &rng)),
          Leaf(1, n, SpecialLaden(1, n, 2, &rng))};
}

TEST(FusedOpsTest, DenseForwardBitEqualToReference) {
  for (int m : {1, 2, 37}) {
    for (int n : {1, 3, 4, 7, 8, 9, 31, 32, 33}) {
      const DenseLeaves in = MakeDenseLeaves(m, n, m * 100 + n);
      for (const Activation activation : kActivations) {
        for (const bool bias : {false, true}) {
          SCOPED_TRACE(DenseCase(activation, bias, m, n));
          const Tensor b = bias ? in.b : Tensor();
          const Tensor expected = reference::Dense(in.x, in.w, b, activation);
          const Tensor taped = Dense(in.x, in.w, b, activation);
          EXPECT_TRUE(taped.requires_grad());
          EXPECT_TRUE(SameBitsOrBothNan(taped, expected));
          NoGradGuard no_grad;
          const Tensor untaped = Dense(in.x, in.w, b, activation);
          EXPECT_FALSE(untaped.requires_grad());
          EXPECT_TRUE(SameBitsOrBothNan(untaped, expected));
        }
      }
    }
  }
}

// Gradients for x, W and b, also with x gradient-free as in a first
// layer over dataset features: x then gets no grad buffer.
TEST(FusedOpsTest, DenseGradientsBitEqualToReference) {
  for (int m : {1, 2, 37}) {
    for (int n : {1, 3, 4, 7, 8, 9, 31, 32, 33}) {
      const DenseLeaves in = MakeDenseLeaves(m, n, m * 100 + n);
      const std::vector<Tensor> leaves = {in.x, in.w, in.b};
      for (const Activation activation : kActivations) {
        for (const bool bias : {false, true}) {
          for (const bool x_grad : {true, false}) {
            SCOPED_TRACE(DenseCase(activation, bias, m, n) +
                         (x_grad ? "" : " x-gradient-free"));
            Tensor x = in.x;
            x.set_requires_grad(x_grad);
            x.impl().grad.clear();
            const Tensor b = bias ? in.b : Tensor();
            const auto fused = Gradients(
                [&] { return Dense(in.x, in.w, b, activation); }, leaves, 7);
            const auto expected = Gradients(
                [&] { return reference::Dense(in.x, in.w, b, activation); },
                leaves, 7);
            for (size_t i = 0; i < leaves.size(); ++i) {
              EXPECT_TRUE(SameBitsOrBothNan(fused[i], expected[i]))
                  << "leaf " << i;
            }
            EXPECT_EQ(fused[0].empty(), !x_grad);
            x.set_requires_grad(true);
          }
        }
      }
    }
  }
}

// Rows split over the pool in the epilogue, the dz pass and the products:
// 3000 rows are several blocks of each at 4 threads.
TEST(FusedOpsTest, DenseBitsIndependentOfThreadCount) {
  const int original = NumThreads();
  Rng rng(29);
  const Tensor x = Tensor::Randn(3000, 32, &rng, 1.0f, true);
  const Tensor w = Tensor::Randn(32, 33, &rng, 1.0f, true);
  const Tensor b = Tensor::Randn(1, 33, &rng, 1.0f, true);
  const std::vector<Tensor> leaves = {x, w, b};
  for (const Activation activation : kActivations) {
    SCOPED_TRACE(DenseCase(activation, true, 3000, 33));
    const auto op = [&] { return Dense(x, w, b, activation); };
    SetNumThreads(1);
    const Tensor serial = op();
    const auto serial_grads = Gradients(op, leaves, 9);
    SetNumThreads(4);
    const Tensor parallel = op();
    const auto parallel_grads = Gradients(op, leaves, 9);
    EXPECT_TRUE(SameBitsOrBothNan(serial, parallel));
    for (size_t i = 0; i < leaves.size(); ++i) {
      EXPECT_TRUE(SameBitsOrBothNan(serial_grads[i], parallel_grads[i]))
          << "leaf " << i;
    }
  }
  SetNumThreads(original);
}

// Under an int8 scope Dense's product is MatMul's: a taped call is
// refused, and an untaped one runs the int8 kernel and equals MatMul
// followed by the bias add and the activation.
TEST(FusedOpsTest, DenseUnderInt8Scope) {
  Rng rng(31);
  const Tensor x = Tensor::Randn(64, 64, &rng);
  const Tensor w = Tensor::Randn(64, 64, &rng, 1.0f, true);
  const Tensor b = Tensor::Randn(1, 64, &rng, 1.0f, true);
  PrecisionScope scope(Precision::kInt8);
  EXPECT_DEATH(Dense(x, w, b, Activation::kRelu), "refuses taped tensors");
  NoGradGuard no_grad;
  obs::HotCountersHold hot_counters;
  for (const Activation activation : kActivations) {
    for (const bool bias : {false, true}) {
      SCOPED_TRACE(DenseCase(activation, bias, 64, 64));
      const Tensor bias_or_none = bias ? b : Tensor();
      const uint64_t before =
          obs::CounterValue(obs::names::kMatMulDispatchInt8);
      const Tensor fused = Dense(x, w, bias_or_none, activation);
      EXPECT_EQ(obs::CounterValue(obs::names::kMatMulDispatchInt8),
                before + 1);
      EXPECT_TRUE(SameBitsOrBothNan(
          fused, reference::Dense(x, w, bias_or_none, activation)));
    }
  }
}

// Taped nodes reachable from `root`, root included.
int TapedNodes(const Tensor& root) {
  std::unordered_set<const internal::TensorImpl*> seen;
  std::vector<const internal::TensorImpl*> stack = {root.impl_ptr().get()};
  int taped = 0;
  while (!stack.empty()) {
    const internal::TensorImpl* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    if (node->backward_fn) ++taped;
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  return taped;
}

// One HAP training example's tape (hidden 32, a 36-node PROTEINS-like
// graph whose level 0 dispatches sparse). GCont standardisation, MOA,
// soft sampling and each SymNormalize of the coarsened level record one
// node apiece, and so does each dense layer's product, bias add and
// activation (Dense), so the tape holds 31 taped nodes and Loss plus
// Backward run 17 MatMuls. With the composed dense chain of
// dense_reference.h it held 40; with the composed ops of
// coarsening_reference.h as well, 109 nodes and 33 MatMuls.
TEST(FusedOpsTest, HapTrainingTapeSize) {
  Rng rng(3);
  const GraphDataset dataset = MakeProteinsLike(8, &rng);
  const PreparedGraph graph =
      PrepareGraph(dataset.graphs[0], dataset.feature_spec);
  ASSERT_EQ(graph.level.num_nodes(), 36);
  ASSERT_TRUE(graph.level.UseSparse());
  GraphClassifier model(
      MakeEmbedderByName("HAP", dataset.feature_spec.FeatureDim(), 32, &rng),
      dataset.num_classes, 32, &rng);
  model.set_training(true);
  obs::HotCountersHold hot_counters;
  const uint64_t before = obs::CounterValue(obs::names::kMatMulCalls);
  const Tensor loss = model.Loss(graph);
  const int taped = TapedNodes(loss);
  loss.Backward();
  const uint64_t matmuls = obs::CounterValue(obs::names::kMatMulCalls) - before;
  EXPECT_EQ(taped, 31);
  EXPECT_EQ(matmuls, 17u);
}

}  // namespace
}  // namespace hap
