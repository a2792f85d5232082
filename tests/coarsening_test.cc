#include "core/coarsening.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "coarsening_reference.h"
#include "graph/generators.h"
#include "graph/graph_level.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/sparse.h"

namespace hap {
namespace {

CoarseningConfig Config(int in_features, int clusters) {
  CoarseningConfig config;
  config.in_features = in_features;
  config.num_clusters = clusters;
  return config;
}

TEST(GContTest, ShapeMatchesEq13) {
  Rng rng(1);
  CoarseningModule module(Config(6, 4), &rng);
  Tensor h = Tensor::Randn(9, 6, &rng);
  Tensor c = module.ComputeGCont(h);
  EXPECT_EQ(c.rows(), 9);   // rows = source nodes
  EXPECT_EQ(c.cols(), 4);   // columns = target clusters
}

TEST(MoaTest, RowsAreDistributions) {
  Rng rng(2);
  CoarseningModule module(Config(6, 4), &rng);
  Tensor h = Tensor::Randn(9, 6, &rng);
  Tensor m = module.ComputeAttention(module.ComputeGCont(h));
  EXPECT_EQ(m.rows(), 9);
  EXPECT_EQ(m.cols(), 4);
  for (int r = 0; r < 9; ++r) {
    float sum = 0;
    for (int c = 0; c < 4; ++c) {
      EXPECT_GE(m.At(r, c), 0.0f);
      sum += m.At(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);  // Eq. 15 normalisation
  }
}

TEST(MoaTest, FullyConnectedChannel) {
  // Every node gets nonzero attention to every cluster — the "high-order
  // dependency" channel: softmax output is strictly positive.
  Rng rng(3);
  CoarseningModule module(Config(4, 3), &rng);
  Tensor h = Tensor::Randn(12, 4, &rng);
  Tensor m = module.ComputeAttention(module.ComputeGCont(h));
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_GT(m.data()[i], 0.0f);
}

TEST(MoaTest, HandlesFewerNodesThanClusters) {
  // Claim 3's zero padding: N < N' must still work.
  Rng rng(4);
  CoarseningModule module(Config(4, 6), &rng);
  Tensor h = Tensor::Randn(3, 4, &rng);
  Tensor m = module.ComputeAttention(module.ComputeGCont(h));
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 6);
}

TEST(RelaxationTest, TruncationEqualsZeroPaddedFullAttention) {
  // Claim 3: comparing C_{:,j} ∈ ℝᴺ against the relaxed a ∈ ℝ^{2N'} with
  // zero padding gives the same logits as the truncated inner product the
  // paper-literal implementation uses. Verify by computing both explicitly.
  Rng rng(5);
  const int n = 7, clusters = 3;
  CoarseningConfig literal = Config(4, clusters);
  literal.paper_literal_relaxation = true;
  literal.bilinear_moa = false;     // Plain Eq. 14 logits for this check.
  literal.normalize_gcont = false;  // Hand formula uses the raw GCont.
  CoarseningModule module(literal, &rng);
  Tensor h = Tensor::Randn(n, 4, &rng);
  Tensor c = module.ComputeGCont(h);
  // Hand-compute: logits_ij = LeakyReLU(a1·C_{i,:} + a2_padded·C_{:,j}).
  std::vector<Tensor> params;
  module.CollectParameters(&params);
  const Tensor& a1 = params[1];  // attn_row_
  const Tensor& a2 = params[2];  // attn_col_
  Tensor m = module.ComputeAttention(c);
  for (int i = 0; i < n; ++i) {
    std::vector<float> logits(clusters);
    for (int j = 0; j < clusters; ++j) {
      double row_term = 0.0;
      for (int k = 0; k < clusters; ++k) row_term += a1.At(k, 0) * c.At(i, k);
      // a2 zero-padded to length N: only the first min(N, N') entries of
      // the column participate.
      double col_term = 0.0;
      for (int k = 0; k < std::min(n, clusters); ++k) {
        col_term += a2.At(k, 0) * c.At(k, j);
      }
      const double z = row_term + col_term;
      logits[j] = static_cast<float>(z >= 0 ? z : 0.2 * z);
    }
    // Softmax and compare.
    float mx = logits[0];
    for (float v : logits) mx = std::max(mx, v);
    double sum = 0;
    for (float& v : logits) {
      v = std::exp(v - mx);
      sum += v;
    }
    for (int j = 0; j < clusters; ++j) {
      EXPECT_NEAR(m.At(i, j), logits[j] / sum, 1e-4);
    }
  }
}

TEST(RelaxationTest, LiteralTruncationIsOrderDependent) {
  // Documents why the literal Claim 3 relaxation is not the default: the
  // truncated column operand changes under node permutation, while the
  // default invariant operand does not (covered by PermutationInvariance
  // below). Here we just confirm the two variants genuinely differ.
  Rng rng(55);
  CoarseningConfig literal = Config(4, 3);
  literal.paper_literal_relaxation = true;
  CoarseningConfig invariant = Config(4, 3);
  Rng rng_a(99), rng_b(99);
  CoarseningModule literal_module(literal, &rng_a);
  CoarseningModule invariant_module(invariant, &rng_b);
  Tensor h = Tensor::Randn(9, 4, &rng);
  Tensor m1 = literal_module.ComputeAttention(literal_module.ComputeGCont(h));
  Tensor m2 =
      invariant_module.ComputeAttention(invariant_module.ComputeGCont(h));
  double diff = 0.0;
  for (int64_t i = 0; i < m1.size(); ++i) {
    diff += std::abs(m1.data()[i] - m2.data()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(CoarseningTest, OutputShapesEq17And18) {
  Rng rng(6);
  CoarseningModule module(Config(5, 4), &rng);
  Graph g = ConnectedErdosRenyi(11, 0.4, &rng);
  Tensor h = Tensor::Randn(11, 5, &rng);
  CoarsenResult result = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(result.h.rows(), 4);
  EXPECT_EQ(result.h.cols(), 5);
  EXPECT_EQ(result.level.adjacency().rows(), 4);
  EXPECT_EQ(result.level.adjacency().cols(), 4);
}

TEST(CoarseningTest, PermutationInvariance) {
  // Claim 2: coarsened features must be identical when input nodes are
  // renamed (evaluation mode: no Gumbel noise).
  Rng rng(7);
  CoarseningConfig config = Config(5, 3);
  config.use_gumbel = false;
  CoarseningModule module(config, &rng);
  module.set_training(false);
  Graph g = ConnectedErdosRenyi(9, 0.5, &rng);
  Tensor h = Tensor::Randn(9, 5, &rng);
  CoarsenResult base = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  std::vector<int> perm = RandomPermutation(9, &rng);
  Graph pg = g.Permuted(perm);
  Tensor ph(9, 5);
  for (int u = 0; u < 9; ++u) {
    for (int c = 0; c < 5; ++c) ph.Set(perm[u], c, h.At(u, c));
  }
  CoarsenResult permuted = module.Forward(ph, GraphLevel(pg.AdjacencyMatrix()));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(base.h.At(r, c), permuted.h.At(r, c), 1e-4);
    }
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(base.level.adjacency().At(r, c),
                  permuted.level.adjacency().At(r, c), 1e-4);
    }
  }
}

TEST(CoarseningTest, GumbelSamplingOnlyInTraining) {
  Rng rng(8);
  CoarseningModule module(Config(4, 3), &rng);
  Graph g = ConnectedErdosRenyi(7, 0.5, &rng);
  Tensor h = Tensor::Randn(7, 4, &rng);
  module.set_training(false);
  CoarsenResult eval1 = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  CoarsenResult eval2 = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  for (int64_t i = 0; i < eval1.level.adjacency().size(); ++i) {
    EXPECT_EQ(eval1.level.adjacency().data()[i],
              eval2.level.adjacency().data()[i]);
  }
  module.set_training(true);
  CoarsenResult train1 = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  CoarsenResult train2 = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  bool any_diff = false;
  for (int64_t i = 0; i < train1.level.adjacency().size(); ++i) {
    any_diff |= train1.level.adjacency().data()[i] !=
                train2.level.adjacency().data()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(CoarseningTest, GradientsFlowToAllParameters) {
  Rng rng(9);
  CoarseningModule module(Config(4, 3), &rng);
  Graph g = ConnectedErdosRenyi(6, 0.5, &rng);
  Tensor h = Tensor::Randn(6, 4, &rng);
  CoarsenResult result = module.Forward(h, GraphLevel(g.AdjacencyMatrix()));
  Tensor loss = Add(ReduceSumAll(Square(result.h)),
                    ReduceSumAll(Square(result.level.adjacency())));
  loss.Backward();
  for (const Tensor& p : module.Parameters()) {
    bool any = false;
    for (float v : p.grad()) any |= v != 0.0f;
    EXPECT_TRUE(any);
  }
}

TEST(CoarseningTest, AblatedGContVariant) {
  Rng rng(10);
  CoarseningConfig config = Config(5, 3);
  config.use_gcont = false;
  CoarseningModule module(config, &rng);
  Graph g = ConnectedErdosRenyi(8, 0.4, &rng);
  CoarsenResult result = module.Forward(Tensor::Randn(8, 5, &rng),
                                        GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(result.h.rows(), 3);
  EXPECT_EQ(module.Parameters().size(), 3u);  // seeds + a1 + a2
}

TEST(CoarseningTest, ExpansionWhenTargetLargerThanSource) {
  // The paper's M is N x N' for any N, including N < N'.
  Rng rng(11);
  CoarseningModule module(Config(4, 8), &rng);
  Graph g = Cycle(3);
  CoarsenResult result = module.Forward(Tensor::Randn(3, 4, &rng),
                                        GraphLevel(g.AdjacencyMatrix()));
  EXPECT_EQ(result.h.rows(), 8);
}

TEST(ComplexityTest, AttentionCostQuadraticInNodes) {
  // Claim 1 sanity check at the unit level: M has N*N' entries, linear in
  // N for fixed N', so coarsening K levels with ratio r is O(rN²) overall.
  Rng rng(12);
  CoarseningModule module(Config(4, 4), &rng);
  for (int n : {5, 17, 33}) {
    Tensor h = Tensor::Randn(n, 4, &rng);
    Tensor m = module.ComputeAttention(module.ComputeGCont(h));
    EXPECT_EQ(m.rows(), n);
    EXPECT_EQ(m.cols(), 4);
  }
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

Tensor WithZeros(int rows, int cols, Rng* rng) {
  return Tensor::FromVector(rows, cols, reference::ZeroLaden(rows, cols, rng));
}

// GCont standardisation and MOA run as one op each. Taped and untaped,
// every result must be memcmp-equal to the composed ops of
// coarsening_reference.h, for each way r, s and the interaction term are
// formed; so must a dense Forward (H′ = MᵀH and the soft-sampled MᵀAM),
// and a top-k Forward must not depend on the grad mode. With finite
// operands a skipped zero term is invisible (the sums start at +0), so one
// input also puts an infinity into a row of zeros, where a zero left-hand
// term not skipped would add 0·inf = NaN.
TEST(UntapedCoarseningTest, MemcmpEqualToTapedOps) {
  constexpr int kFeatures = 6;
  for (const char* variant : {"default", "bilinear_off", "paper_literal",
                              "gcont_off", "normalize_off"}) {
    for (int n : {1, 3, 40, 500}) {
      for (int clusters : {1, 8, 32}) {
        SCOPED_TRACE(std::string(variant) + " N=" + std::to_string(n) +
                     " N'=" + std::to_string(clusters));
        CoarseningConfig config = Config(kFeatures, clusters);
        const std::string v = variant;
        config.bilinear_moa = v != "bilinear_off";
        config.paper_literal_relaxation = v == "paper_literal";
        config.use_gcont = v != "gcont_off";
        config.normalize_gcont = v != "normalize_off";
        Rng rng(n * 97 + clusters);
        CoarseningModule module(config, &rng);
        module.set_training(false);
        const Tensor h = WithZeros(n, kFeatures, &rng);
        const int width = config.use_gcont ? clusters : kFeatures;
        const Tensor raw = WithZeros(n, width, &rng);
        std::vector<float> inf_values = raw.values();
        inf_values[static_cast<size_t>(std::min(1, n - 1)) * width +
                   width - 1] = std::numeric_limits<float>::infinity();
        const Tensor with_inf =
            Tensor::FromVector(n, width, std::move(inf_values));
        const CsrMatrix csr =
            SparseErdosRenyiCsr(n, std::min(0.5, 6.0 / n), &rng);
        const GraphLevel dense_level(csr.ToDense());

        std::vector<Tensor> expected;
        const Tensor c_ref =
            config.use_gcont ? reference::GCont(module, h) : h;
        if (config.use_gcont) expected.push_back(c_ref);
        const Tensor m_ref = reference::Attention(module, c_ref);
        expected.push_back(m_ref);
        expected.push_back(reference::Attention(module, raw));
        const Tensor m_t = Transpose(m_ref);
        expected.push_back(MatMul(m_t, h));
        expected.push_back(reference::GumbelSoftSample(
            MatMul(m_t, dense_level.Aggregate(m_ref)), config.tau, nullptr,
            /*training=*/false));
        const Tensor inf_ref = reference::Attention(module, with_inf);

        std::vector<Tensor> topk[2];
        for (const bool taped : {true, false}) {
          SCOPED_TRACE(taped ? "taped" : "untaped");
          std::optional<NoGradGuard> no_grad;
          if (!taped) no_grad.emplace();
          std::vector<Tensor> out;
          const Tensor c = config.use_gcont ? module.ComputeGCont(h) : h;
          if (config.use_gcont) out.push_back(c);
          out.push_back(module.ComputeAttention(c));
          out.push_back(module.ComputeAttention(raw));
          const Tensor inf_attention = module.ComputeAttention(with_inf);
          module.set_coarsen_mode(CoarsenMode::kDense);
          const CoarsenResult dense = module.Forward(h, dense_level);
          out.push_back(dense.h);
          out.push_back(dense.level.adjacency());
          EXPECT_EQ(out[0].requires_grad(), taped);
          ASSERT_EQ(out.size(), expected.size());
          for (size_t i = 0; i < out.size(); ++i) {
            EXPECT_TRUE(BitEqual(out[i], expected[i])) << "result " << i;
          }
          EXPECT_TRUE(reference::SameBitsOrBothNan(inf_attention, inf_ref));
          module.set_coarsen_mode(CoarsenMode::kTopkSparse, 4);
          const CoarsenResult sparse = module.Forward(h, GraphLevel(csr));
          topk[taped] = {sparse.h, sparse.level.adjacency()};
        }
        for (size_t i = 0; i < topk[0].size(); ++i) {
          EXPECT_TRUE(BitEqual(topk[1][i], topk[0][i])) << "top-k " << i;
        }
      }
    }
  }
}

// A calibration forward runs the same in-place MOA as any untaped call,
// so the only MatMul site with a weight operand is GCont's H·T, and it is
// recorded only when T's shape can dispatch int8 (F ≥ 16 rows, N′ ≥ 8
// columns).
TEST(UntapedCoarseningTest, CalibrationRecordsOnlyInt8EligibleSites) {
  for (const auto& [features, clusters, sites] :
       {std::tuple{32, 8, 1u}, std::tuple{6, 4, 0u}}) {
    SCOPED_TRACE(std::to_string(features) + "x" + std::to_string(clusters));
    Rng rng(23);
    CoarseningModule module(Config(features, clusters), &rng);
    const Tensor h = Tensor::Randn(10, features, &rng);
    NoGradGuard no_grad;
    CalibrationObserver observer;
    module.ComputeAttention(module.ComputeGCont(h));
    std::vector<Tensor> params;
    module.CollectParameters(&params);
    const std::vector<QuantScaleEntry> entries = observer.Entries(params);
    ASSERT_EQ(entries.size(), sites);
    if (sites == 1u) {
      EXPECT_EQ(entries[0].param_index, 0u);  // T
    }
  }
}

// Under int8, untaped MOA takes the same in-place path as fp32, and only
// its C·G GEMM can quantize: at N′ = 8 that GEMM is too shallow for int8,
// so the result is the fp32 one bit for bit; at N′ = 32 it is the one
// int8 dispatch, and M stays a row-stochastic matrix.
TEST(UntapedCoarseningTest, Int8ScopeTakesTheInPlacePath) {
  obs::HotCountersHold hot_counters;
  constexpr int kFeatures = 6;
  for (int n : {40, 256, 2000}) {
    for (int clusters : {8, 32}) {
      SCOPED_TRACE("N=" + std::to_string(n) +
                   " N'=" + std::to_string(clusters));
      Rng rng(n + clusters);
      CoarseningModule module(Config(kFeatures, clusters), &rng);
      NoGradGuard no_grad;
      const Tensor c = module.ComputeGCont(Tensor::Randn(n, kFeatures, &rng));
      const Tensor fp32 = module.ComputeAttention(c);
      const uint64_t before =
          obs::CounterValue(obs::names::kMatMulDispatchInt8);
      Tensor int8;
      {
        PrecisionScope scope(Precision::kInt8);
        int8 = module.ComputeAttention(c);
      }
      const uint64_t dispatched =
          obs::CounterValue(obs::names::kMatMulDispatchInt8) - before;
      if (clusters == 8) {
        EXPECT_EQ(dispatched, 0u);
        EXPECT_TRUE(BitEqual(int8, fp32));
        continue;
      }
      EXPECT_EQ(dispatched, 1u);
      for (int i = 0; i < n; ++i) {
        double sum = 0.0;
        for (int j = 0; j < clusters; ++j) {
          ASSERT_TRUE(std::isfinite(int8.At(i, j))) << "row " << i;
          sum += int8.At(i, j);
        }
        ASSERT_NEAR(sum, 1.0, 1e-5) << "row " << i;
      }
    }
  }
}

// A non-finite feature makes the GCont variance NaN; taped and untaped
// standardisation fail the same check as the composed Sqrt did.
TEST(UntapedCoarseningDeathTest, NonFiniteFeaturesFailTheVarianceCheck) {
  Rng rng(21);
  CoarseningModule module(Config(4, 3), &rng);
  std::vector<float> v = Tensor::Randn(5, 4, &rng).values();
  v[6] = std::numeric_limits<float>::infinity();
  const Tensor h = Tensor::FromVector(5, 4, std::move(v));
  const char* message = "HAP_CHECK failed.*>= \\(0.0f\\) \\(-?nan vs 0\\)";
  EXPECT_DEATH(module.ComputeGCont(h), message);
  EXPECT_DEATH(
      {
        NoGradGuard no_grad;
        module.ComputeGCont(h);
      },
      message);
}

}  // namespace
}  // namespace hap
