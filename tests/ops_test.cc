#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/matmul_kernels.h"

namespace hap {
namespace {

Tensor M(int r, int c, std::vector<float> v) {
  return Tensor::FromVector(r, c, std::move(v));
}

void ExpectTensorEq(const Tensor& t, int rows, int cols,
                    const std::vector<float>& expected, float tol = 1e-5f) {
  ASSERT_EQ(t.rows(), rows);
  ASSERT_EQ(t.cols(), cols);
  for (int i = 0; i < rows * cols; ++i) {
    EXPECT_NEAR(t.data()[i], expected[i], tol) << "at flat index " << i;
  }
}

TEST(OpsTest, MatMul) {
  Tensor a = M(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = M(3, 2, {7, 8, 9, 10, 11, 12});
  ExpectTensorEq(MatMul(a, b), 2, 2, {58, 64, 139, 154});
}

TEST(OpsTest, AddSubMulDiv) {
  Tensor a = M(1, 3, {1, 4, 9});
  Tensor b = M(1, 3, {1, 2, 3});
  ExpectTensorEq(Add(a, b), 1, 3, {2, 6, 12});
  ExpectTensorEq(Sub(a, b), 1, 3, {0, 2, 6});
  ExpectTensorEq(Mul(a, b), 1, 3, {1, 8, 27});
  ExpectTensorEq(Div(a, b), 1, 3, {1, 2, 3});
}

TEST(OpsTest, Broadcasts) {
  Tensor a = M(2, 2, {1, 2, 3, 4});
  ExpectTensorEq(ScaleRows(a, M(2, 1, {2, 3})), 2, 2, {2, 4, 9, 12});
  ExpectTensorEq(ScaleCols(a, M(1, 2, {2, 3})), 2, 2, {2, 6, 6, 12});
  ExpectTensorEq(OuterSum(M(2, 1, {1, 2}), M(1, 2, {10, 20})), 2, 2,
                 {11, 21, 12, 22});
}

// Dense adds the bias to every row of the product, then activates.
TEST(OpsTest, DenseAddsBiasThenActivates) {
  Tensor x = M(2, 2, {1, 2, 3, 4});
  Tensor w = M(2, 2, {1, 0, 0, -1});
  Tensor b = M(1, 2, {10, -20});
  ExpectTensorEq(Dense(x, w, b, Activation::kNone), 2, 2, {11, -22, 13, -24});
  ExpectTensorEq(Dense(x, w, b, Activation::kRelu), 2, 2, {11, 0, 13, 0});
  ExpectTensorEq(Dense(x, w, Tensor(), Activation::kRelu), 2, 2,
                 {1, 0, 3, 0});
  ExpectTensorEq(Dense(x, w, b, Activation::kTanh), 2, 2,
                 {std::tanh(11.0f), -1, std::tanh(13.0f), -1});
}

TEST(OpsTest, ScalarOpsAndNeg) {
  Tensor a = M(1, 2, {1, -2});
  ExpectTensorEq(MulScalar(a, 3.0f), 1, 2, {3, -6});
  ExpectTensorEq(AddScalar(a, 1.0f), 1, 2, {2, -1});
  ExpectTensorEq(Neg(a), 1, 2, {-1, 2});
}

TEST(OpsTest, TransposeAndReshape) {
  Tensor a = M(2, 3, {1, 2, 3, 4, 5, 6});
  ExpectTensorEq(Transpose(a), 3, 2, {1, 4, 2, 5, 3, 6});
  ExpectTensorEq(Reshape(a, 3, 2), 3, 2, {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, ConcatAndSlice) {
  Tensor a = M(2, 2, {1, 2, 3, 4});
  Tensor b = M(2, 1, {5, 6});
  ExpectTensorEq(ConcatCols(a, b), 2, 3, {1, 2, 5, 3, 4, 6});
  ExpectTensorEq(ConcatRows({a, M(1, 2, {7, 8})}), 3, 2, {1, 2, 3, 4, 7, 8});
  ExpectTensorEq(SliceRows(a, 1, 2), 1, 2, {3, 4});
  ExpectTensorEq(SliceCols(a, 0, 1), 2, 1, {1, 3});
}

TEST(OpsTest, GatherRowsWithDuplicates) {
  Tensor a = M(3, 2, {1, 2, 3, 4, 5, 6});
  ExpectTensorEq(GatherRows(a, {2, 0, 2}), 3, 2, {5, 6, 1, 2, 5, 6});
}

TEST(OpsTest, Nonlinearities) {
  Tensor a = M(1, 4, {-2, -0.5, 0, 3});
  ExpectTensorEq(Relu(a), 1, 4, {0, 0, 0, 3});
  // Bit for bit x > 0 ? x : 0, signed zeros, NaN and denormals included.
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> special = {
      std::numeric_limits<float>::quiet_NaN(), -0.0f, 0.0f, -inf, inf,
      denorm, -denorm, -1.5f, 2.5f};
  const Tensor relu = Relu(M(1, static_cast<int>(special.size()), special));
  for (size_t i = 0; i < special.size(); ++i) {
    const float expected = special[i] > 0.0f ? special[i] : 0.0f;
    EXPECT_EQ(std::memcmp(&relu.data()[i], &expected, sizeof(float)), 0)
        << "at " << i;
  }
  ExpectTensorEq(LeakyRelu(a, 0.1f), 1, 4, {-0.2f, -0.05f, 0, 3});
  Tensor s = Sigmoid(M(1, 2, {0, 100}));
  EXPECT_NEAR(s.At(0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(s.At(0, 1), 1.0f, 1e-6);
  Tensor t = Tanh(M(1, 1, {0}));
  EXPECT_EQ(t.At(0, 0), 0.0f);
}

TEST(OpsTest, ExpLogSqrtSquareClamp) {
  Tensor a = M(1, 2, {1, 4});
  ExpectTensorEq(Log(a), 1, 2, {0.0f, std::log(4.0f)});
  ExpectTensorEq(Sqrt(a), 1, 2, {1, 2});
  ExpectTensorEq(Square(a), 1, 2, {1, 16});
  ExpectTensorEq(Exp(M(1, 1, {0})), 1, 1, {1});
  ExpectTensorEq(ClampMin(M(1, 3, {-1, 0.5f, 2}), 1.0f), 1, 3, {1, 1, 2});
  ExpectTensorEq(ClampMax(M(1, 3, {-1, 0.5f, 2}), 1.0f), 1, 3, {-1, 0.5f, 1});
}

TEST(OpsTest, ClampsMapNonFiniteOntoBounds) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // NaN compares false against any bound, so both clamps replace it.
  ExpectTensorEq(ClampMin(M(1, 3, {nan, -inf, 2}), 0.5f), 1, 3,
                 {0.5f, 0.5f, 2});
  ExpectTensorEq(ClampMax(M(1, 3, {nan, inf, 0}), 0.5f), 1, 3,
                 {0.5f, 0.5f, 0});
}

TEST(OpsTest, ClampMaxGradientMasksClampedEntries) {
  Tensor a = M(1, 3, {-1, 0.5f, 2});
  a.set_requires_grad(true);
  ReduceSumAll(ClampMax(a, 1.0f)).Backward();
  EXPECT_EQ(a.GradAt(0, 0), 1.0f);
  EXPECT_EQ(a.GradAt(0, 1), 1.0f);
  EXPECT_EQ(a.GradAt(0, 2), 0.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = M(2, 3, {1, 2, 3, -1, 0, 1});
  Tensor s = SoftmaxRows(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += s.At(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // Monotone in logits.
  EXPECT_LT(s.At(0, 0), s.At(0, 2));
}

TEST(OpsTest, SoftmaxNumericallyStable) {
  Tensor s = SoftmaxRows(M(1, 2, {1000, 1001}));
  EXPECT_NEAR(s.At(0, 0) + s.At(0, 1), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(s.At(0, 0)));
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = M(1, 3, {0.3f, -1.2f, 2.0f});
  Tensor ls = LogSoftmaxRows(a);
  Tensor s = SoftmaxRows(a);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(ls.At(0, c), std::log(s.At(0, c)), 1e-5);
  }
}

TEST(OpsTest, Reductions) {
  Tensor a = M(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(ReduceSumAll(a).Item(), 21.0f);
  EXPECT_NEAR(ReduceMeanAll(a).Item(), 3.5f, 1e-6);
  ExpectTensorEq(ReduceSumRows(a), 1, 3, {5, 7, 9});
  ExpectTensorEq(ReduceSumCols(a), 2, 1, {6, 15});
  ExpectTensorEq(ReduceMeanRows(a), 1, 3, {2.5f, 3.5f, 4.5f});
  ExpectTensorEq(ReduceMeanCols(a), 2, 1, {2, 5});
  ExpectTensorEq(ReduceMaxRows(a), 1, 3, {4, 5, 6});
}

TEST(OpsTest, NllLoss) {
  // log-probs for two rows.
  Tensor lp = M(2, 2, {std::log(0.25f), std::log(0.75f), std::log(0.5f),
                       std::log(0.5f)});
  Tensor loss = NllLoss(lp, {1, 0});
  EXPECT_NEAR(loss.Item(), -(std::log(0.75f) + std::log(0.5f)) / 2.0f, 1e-5);
}

TEST(OpsTest, Distances) {
  Tensor a = M(1, 2, {0, 0});
  Tensor b = M(1, 2, {3, 4});
  EXPECT_NEAR(SquaredDistance(a, b).Item(), 25.0f, 1e-5);
  EXPECT_NEAR(EuclideanDistance(a, b).Item(), 5.0f, 1e-4);
}

TEST(OpsTest, ArgSortAndTopK) {
  std::vector<int> order = ArgSortDescending({1.0f, 5.0f, 3.0f});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  Tensor a = M(3, 1, {0.2f, 0.9f, 0.5f});
  EXPECT_EQ(TopKRowsByColumn(a, 0, 2), (std::vector<int>{1, 2}));
}

TEST(OpsDeathTest, ShapeMismatchesCheck) {
  Tensor a = M(2, 2, {1, 2, 3, 4});
  Tensor b = M(1, 2, {1, 2});
  EXPECT_DEATH(Add(a, b), "HAP_CHECK failed");
  EXPECT_DEATH(MatMul(a, M(3, 1, {1, 2, 3})), "HAP_CHECK failed");
  EXPECT_DEATH(Log(M(1, 1, {0.0f})), "Log of non-positive");
}


// ---------------------------------------------------------------------------
// Kernel parity: MatMul runs the blocked micro-kernels at every shape, and
// they must be bit-identical to the naive reference kernels, including
// tile-boundary and tail cases, and for inputs with zeros (skip paths),
// infinities, and NaNs. See docs/PERFORMANCE.md for the determinism
// contract under test.
// ---------------------------------------------------------------------------

void ExpectBitIdentical(const std::vector<float>& got,
                        const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    uint32_t gb, wb;
    std::memcpy(&gb, &got[i], sizeof(gb));
    std::memcpy(&wb, &want[i], sizeof(wb));
    EXPECT_EQ(gb, wb) << what << " differs at flat index " << i << " ("
                      << got[i] << " vs " << want[i] << ")";
  }
}

// {out, dA, dB} of one product as raw float buffers.
struct MatMulRun {
  std::vector<float> out, da, db;
};

// MatMul's forward and backward of W ⊙ (A·B) summed, and the naive
// reference kernels run on the same operands with the same upstream
// gradient (the grad MatMul's backward received).
struct MatMulParity {
  MatMulRun matmul, reference;
};

MatMulParity RunMatMul(int m, int k, int n, const std::vector<float>& av,
                       const std::vector<float>& bv,
                       const std::vector<float>& wv) {
  Tensor a = Tensor::FromVector(m, k, av, /*requires_grad=*/true);
  Tensor b = Tensor::FromVector(k, n, bv, /*requires_grad=*/true);
  Tensor w = Tensor::FromVector(m, n, wv);
  Tensor out = MatMul(a, b);
  ReduceSumAll(Mul(out, w)).Backward();
  const float* g = out.grad().data();
  MatMulRun reference{std::vector<float>(static_cast<size_t>(m) * n, 0.0f),
                      std::vector<float>(static_cast<size_t>(m) * k, 0.0f),
                      std::vector<float>(static_cast<size_t>(k) * n, 0.0f)};
  kernels::NaiveForwardRows(av.data(), bv.data(), reference.out.data(), k, n,
                            0, m);
  kernels::NaiveGradARows(g, bv.data(), reference.da.data(), k, n, 0, m);
  kernels::NaiveGradBRows(av.data(), g, reference.db.data(), m, k, n, 0, k);
  return {{out.values(), a.grad(), b.grad()}, std::move(reference)};
}

// Random values with a configurable fraction of exact zeros so the
// kernels' skip branches (a==0 forward, g==0 backward) are exercised.
std::vector<float> RandomWithZeros(Rng* rng, int64_t size,
                                   double zero_fraction) {
  std::vector<float> v(static_cast<size_t>(size));
  for (auto& x : v) {
    x = rng->Uniform(0.0, 1.0) < zero_fraction
            ? 0.0f
            : static_cast<float>(rng->Normal());
  }
  return v;
}

// Runs MatMul and the naive kernels on random operands of one shape at
// zero fractions 0 and 0.3, and expects identical bits for out, dA and dB.
// Every operand is a vector of exactly its size, so a load past a tail
// that is not masked reads out of bounds (ASan reports it).
void ExpectShapeBitIdentical(int m, int k, int n, Rng* rng) {
  for (double zero_fraction : {0.0, 0.3}) {
    const std::vector<float> av =
        RandomWithZeros(rng, int64_t{m} * k, zero_fraction);
    const std::vector<float> bv =
        RandomWithZeros(rng, int64_t{k} * n, zero_fraction);
    const std::vector<float> wv =
        RandomWithZeros(rng, int64_t{m} * n, zero_fraction);
    const MatMulParity run = RunMatMul(m, k, n, av, bv, wv);
    SCOPED_TRACE(::testing::Message() << "shape " << m << "x" << k << "x" << n
                                      << " zeros " << zero_fraction);
    ExpectBitIdentical(run.matmul.out, run.reference.out, "forward");
    ExpectBitIdentical(run.matmul.da, run.reference.da, "dA");
    ExpectBitIdentical(run.matmul.db, run.reference.db, "dB");
  }
}

TEST(MatMulKernelParityTest, RandomShapesBitIdentical) {
  // Tile geometry is 4 rows x 16 cols (packed panels) with 32-wide dA
  // chunks: cover below/at/above every boundary plus degenerate and
  // rectangular shapes. The second block is HAP's narrow products: GCont's
  // C = H·T and its dT (27x32x8), MOA's C·G and dG (28x8x8), the first GCN
  // weight of a PROTEINS-like model (28x3x32), a depth-8 dA (6x8x32), a
  // 27-deep dA (8x27x32), a two-class head (1x64x2) and a score column
  // (8x32x1).
  const int shapes[][3] = {
      {1, 1, 1},   {1, 7, 1},    {1, 33, 1},   {1, 5, 16},  {3, 4, 15},
      {4, 32, 16}, {5, 33, 17},  {8, 31, 32},  {9, 8, 48},  {2, 64, 7},
      {16, 3, 33}, {7, 40, 130}, {64, 64, 64}, {20, 33, 47},
      {27, 32, 8}, {28, 8, 8},   {28, 3, 32},  {6, 8, 32},  {8, 27, 32},
      {1, 64, 2},  {8, 32, 1},
  };
  Rng rng(0xC0FFEEu);
  for (const auto& shape : shapes) {
    ExpectShapeBitIdentical(shape[0], shape[1], shape[2], &rng);
  }
}

TEST(MatMulKernelParityTest, LaneTailsBitIdentical) {
  // Column widths around one and two 8-lane vectors and a 16-wide panel
  // (forward and dB column tails, masked or not), depths around the
  // 4-row dB tile and the 8-lane dA depth tail, and row counts that leave
  // one, two and three rows after the 4-row tiles.
  Rng rng(0x7A115u);
  for (int m : {1, 6, 7}) {
    for (int n : {7, 8, 9, 15, 17, 23, 24, 25}) {
      for (int k : {1, 2, 3, 5, 8, 27, 33}) {
        ExpectShapeBitIdentical(m, k, n, &rng);
      }
    }
  }
}

// NaN payloads/signs are outside the contract: the compiler may commute
// the naive kernel's scalar multiplies, so which input NaN propagates (or
// whether an invalid op produces the default -nan) is unspecified even
// between two builds of the reference. What is guaranteed is that NaNs
// and infinities land in exactly the same elements with the same values
// for every non-NaN result.
void ExpectSameUpToNanPayload(const std::vector<float>& got,
                              const std::vector<float>& want,
                              const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    uint32_t gb, wb;
    std::memcpy(&gb, &got[i], sizeof(gb));
    std::memcpy(&wb, &want[i], sizeof(wb));
    EXPECT_EQ(gb, wb) << what << " differs at flat index " << i << " ("
                      << got[i] << " vs " << want[i] << ")";
  }
}

TEST(MatMulKernelParityTest, NonFiniteValuesMatch) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const int m = 6, k = 35, n = 19;
  Rng rng(0xBADF00Du);
  std::vector<float> av = RandomWithZeros(&rng, int64_t{m} * k, 0.2);
  std::vector<float> bv = RandomWithZeros(&rng, int64_t{k} * n, 0.2);
  std::vector<float> wv = RandomWithZeros(&rng, int64_t{m} * n, 0.2);
  av[3] = inf;
  av[k + 1] = -inf;
  av[2 * k + 2] = nan;
  bv[5] = inf;
  bv[n + 4] = nan;
  wv[7] = -inf;
  const MatMulParity run = RunMatMul(m, k, n, av, bv, wv);
  ExpectSameUpToNanPayload(run.matmul.out, run.reference.out, "forward");
  ExpectSameUpToNanPayload(run.matmul.da, run.reference.da, "dA");
  ExpectSameUpToNanPayload(run.matmul.db, run.reference.db, "dB");

  // n2 = 11 is one full vector and a masked one of 3 lanes (columns 8-10)
  // in the forward and dB column tails; k2 = 13 is one full vector and a
  // masked one of 5 lanes (depths 8-12) in the dA depth tail. Every
  // non-finite value here sits in those masked vectors.
  const int m2 = 6, k2 = 13, n2 = 11;
  std::vector<float> a2 = RandomWithZeros(&rng, int64_t{m2} * k2, 0.2);
  std::vector<float> b2 = RandomWithZeros(&rng, int64_t{k2} * n2, 0.2);
  std::vector<float> w2 = RandomWithZeros(&rng, int64_t{m2} * n2, 0.2);
  a2[0 * k2 + 9] = inf;
  a2[2 * k2 + 12] = nan;
  a2[5 * k2 + 10] = -inf;
  b2[9 * n2 + 8] = inf;
  b2[12 * n2 + 10] = nan;
  b2[3 * n2 + 9] = -inf;
  w2[1 * n2 + 10] = -inf;
  w2[4 * n2 + 8] = nan;
  const MatMulParity masked = RunMatMul(m2, k2, n2, a2, b2, w2);
  ExpectSameUpToNanPayload(masked.matmul.out, masked.reference.out,
                           "masked-lane forward");
  ExpectSameUpToNanPayload(masked.matmul.da, masked.reference.da,
                           "masked-lane dA");
  ExpectSameUpToNanPayload(masked.matmul.db, masked.reference.db,
                           "masked-lane dB");
}

TEST(MatMulKernelParityTest, RowPartitionsBitIdentical) {
  // The dispatcher splits output rows across threads; any split must give
  // the same bits as processing all rows at once. Drive the row-range
  // kernels directly with several split points.
  const int64_t m = 11, k = 37, n = 29;
  Rng rng(0x5EEDu);
  const std::vector<float> a = RandomWithZeros(&rng, m * k, 0.25);
  const std::vector<float> b = RandomWithZeros(&rng, k * n, 0.25);

  std::vector<float> whole(static_cast<size_t>(m) * n, 0.0f);
  const float* packed = kernels::PackBPanels(b.data(), k, n);
  kernels::BlockedForwardRows(a.data(), packed, b.data(), whole.data(), k, n,
                              0, m);
  for (int64_t split : {int64_t{1}, int64_t{4}, int64_t{5}, int64_t{10}}) {
    std::vector<float> parts(static_cast<size_t>(m) * n, 0.0f);
    const float* p = kernels::PackBPanels(b.data(), k, n);
    kernels::BlockedForwardRows(a.data(), p, b.data(), parts.data(), k, n, 0,
                                split);
    kernels::BlockedForwardRows(a.data(), p, b.data(), parts.data(), k, n,
                                split, m);
    SCOPED_TRACE(::testing::Message() << "split at row " << split);
    ExpectBitIdentical(parts, whole, "partitioned forward");
  }
}

// MatMul has one fp32 path: the blocked kernels, at every shape, including
// a single row, fewer than 8 rows or columns, depth below 4 and under 16k
// flops.
TEST(MatMulDispatchTest, EveryShapeRunsBlocked) {
  const int shapes[][3] = {
      {1, 32, 32}, {4, 64, 64}, {32, 8, 8}, {16, 3, 33}, {7, 40, 130},
  };
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const uint64_t blocked_before =
      obs::CounterValue(obs::names::kMatMulDispatchBlocked);
  const uint64_t naive_before =
      obs::CounterValue(obs::names::kMatMulDispatchNaive);
  Rng rng(0xD15Au);
  uint64_t calls = 0;
  for (const auto& shape : shapes) {
    const int m = shape[0], k = shape[1], n = shape[2];
    MatMul(Tensor::FromVector(m, k, RandomWithZeros(&rng, int64_t{m} * k, 0)),
           Tensor::FromVector(k, n, RandomWithZeros(&rng, int64_t{k} * n, 0)));
    ++calls;
    EXPECT_EQ(obs::CounterValue(obs::names::kMatMulDispatchBlocked) -
                  blocked_before,
              calls)
        << "shape " << m << "x" << k << "x" << n;
  }
  EXPECT_EQ(obs::CounterValue(obs::names::kMatMulDispatchNaive), naive_before);
  obs::SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace
}  // namespace hap
