#include <gtest/gtest.h>

#include "tensor/grad_check.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hap {
namespace {

// Every op's backward implementation is validated against central finite
// differences through CheckGradients.

Tensor Leaf(int r, int c, std::vector<float> v) {
  return Tensor::FromVector(r, c, std::move(v), /*requires_grad=*/true);
}

void ExpectGradOk(
    const std::function<Tensor(const std::vector<Tensor>&)>& loss_fn,
    std::vector<Tensor> inputs) {
  GradCheckResult result = CheckGradients(loss_fn, std::move(inputs));
  EXPECT_TRUE(result.ok) << "max rel error " << result.max_rel_error;
}

TEST(AutogradTest, SimpleChain) {
  // loss = sum((x * 2 + 1)^2); dloss/dx = 2*(2x+1)*2
  Tensor x = Leaf(1, 1, {1.5f});
  Tensor loss = ReduceSumAll(Square(AddScalar(MulScalar(x, 2.0f), 1.0f)));
  loss.Backward();
  EXPECT_NEAR(x.GradAt(0, 0), 2.0f * 4.0f * 2.0f, 1e-4);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Tensor x = Leaf(1, 1, {2.0f});
  ReduceSumAll(Square(x)).Backward();
  const float first = x.GradAt(0, 0);
  ReduceSumAll(Square(x)).Backward();
  EXPECT_NEAR(x.GradAt(0, 0), 2.0f * first, 1e-5);
}

TEST(AutogradTest, DiamondDependency) {
  // y = x*x used twice: loss = sum(y + y) => dx = 4x.
  Tensor x = Leaf(1, 1, {3.0f});
  Tensor y = Mul(x, x);
  ReduceSumAll(Add(y, y)).Backward();
  EXPECT_NEAR(x.GradAt(0, 0), 12.0f, 1e-4);
}

TEST(AutogradTest, NoGradInputUnaffected) {
  Tensor x = Leaf(1, 2, {1, 2});
  Tensor frozen = Tensor::FromVector(1, 2, {3, 4});
  ReduceSumAll(Mul(x, frozen)).Backward();
  EXPECT_EQ(x.GradAt(0, 0), 3.0f);
  EXPECT_EQ(x.GradAt(0, 1), 4.0f);
}

TEST(AutogradTest, NoGradGuardSkipsTape) {
  Tensor x = Leaf(1, 1, {1.0f});
  NoGradGuard guard;
  Tensor y = Square(x);
  EXPECT_FALSE(y.requires_grad());
}

TEST(GradCheckTest, MatMul) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return ReduceSumAll(Square(MatMul(in[0], in[1])));
      },
      {Leaf(2, 3, {0.1f, -0.2f, 0.3f, 0.4f, 0.5f, -0.6f}),
       Leaf(3, 2, {0.7f, 0.8f, -0.9f, 1.0f, 1.1f, 1.2f})});
}

TEST(GradCheckTest, ElementwiseOps) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor t = Add(Mul(in[0], in[1]), Sub(in[0], in[1]));
        return ReduceSumAll(Square(t));
      },
      {Leaf(2, 2, {0.5f, -1.0f, 2.0f, 0.3f}),
       Leaf(2, 2, {1.5f, 0.7f, -0.2f, 1.1f})});
}

TEST(GradCheckTest, DivAndSqrt) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return ReduceSumAll(Sqrt(Div(Square(in[0]), in[1])));
      },
      {Leaf(1, 3, {1.0f, 2.0f, 3.0f}), Leaf(1, 3, {2.0f, 4.0f, 1.5f})});
}

TEST(GradCheckTest, BroadcastOps) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor t = Dense(in[0], Tensor::Identity(3), in[1],
                         Activation::kNone);
        t = ScaleRows(t, in[2]);
        t = ScaleCols(t, in[3]);
        return ReduceSumAll(Square(t));
      },
      {Leaf(2, 3, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f}),
       Leaf(1, 3, {1.0f, -0.5f, 0.2f}), Leaf(2, 1, {0.8f, 1.2f}),
       Leaf(1, 3, {0.5f, 1.5f, -1.0f})});
}

TEST(GradCheckTest, Dense) {
  for (const Activation activation :
       {Activation::kNone, Activation::kRelu, Activation::kTanh}) {
    for (const bool bias : {false, true}) {
      SCOPED_TRACE(static_cast<int>(activation) * 2 + bias);
      std::vector<Tensor> inputs = {
          Leaf(3, 2, {0.5f, -1.0f, 2.0f, -0.4f, 0.3f, 0.9f}),
          Leaf(2, 3, {0.7f, -0.2f, 0.4f, 1.1f, 0.6f, -0.8f})};
      if (bias) inputs.push_back(Leaf(1, 3, {0.1f, -0.3f, 0.2f}));
      // Every pre-activation stays at least 0.03 from the ReLU kink.
      ExpectGradOk(
          [activation](const std::vector<Tensor>& in) {
            const Tensor b = in.size() > 2 ? in[2] : Tensor();
            return ReduceSumAll(Square(Dense(in[0], in[1], b, activation)));
          },
          inputs);
    }
  }
}

TEST(GradCheckTest, OuterSum) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return ReduceSumAll(Square(OuterSum(in[0], in[1])));
      },
      {Leaf(3, 1, {0.1f, 0.2f, -0.3f}), Leaf(1, 2, {0.4f, -0.5f})});
}

TEST(GradCheckTest, TransposeConcatSliceGather) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor t = ConcatCols(Transpose(in[0]), in[1]);
        t = ConcatRows({t, t});
        t = SliceRows(t, 1, 3);
        t = SliceCols(t, 0, 2);
        t = GatherRows(t, {0, 1, 1});
        return ReduceSumAll(Square(t));
      },
      {Leaf(2, 3, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f}),
       Leaf(3, 1, {0.7f, 0.8f, 0.9f})});
}

TEST(GradCheckTest, Activations) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor t = Add(Add(Relu(in[0]), Sigmoid(in[0])),
                       Add(Tanh(in[0]), LeakyRelu(in[0], 0.1f)));
        return ReduceSumAll(Square(t));
      },
      // Stay away from the ReLU kink at 0 for finite differences.
      {Leaf(2, 2, {0.5f, -1.0f, 2.0f, -0.4f})});
}

TEST(GradCheckTest, ExpLog) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return ReduceSumAll(Mul(Exp(in[0]), Log(AddScalar(Square(in[0]), 1.0f))));
      },
      {Leaf(1, 3, {0.3f, -0.6f, 1.1f})});
}

TEST(GradCheckTest, SoftmaxRows) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor weights = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
        return ReduceSumAll(Mul(SoftmaxRows(in[0]), weights));
      },
      {Leaf(2, 3, {0.5f, -0.2f, 0.8f, 1.0f, 0.0f, -1.0f})});
}

TEST(GradCheckTest, LogSoftmaxAndNll) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return NllLoss(LogSoftmaxRows(in[0]), {2, 0});
      },
      {Leaf(2, 3, {0.5f, -0.2f, 0.8f, 1.0f, 0.0f, -1.0f})});
}

TEST(GradCheckTest, Reductions) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        Tensor t = Add(ReduceSumCols(in[0]), ReduceMeanCols(in[0]));
        return Add(ReduceSumAll(Square(t)),
                   ReduceSumAll(Square(ReduceMeanRows(in[0]))));
      },
      {Leaf(3, 2, {0.1f, 0.9f, -0.4f, 0.3f, 0.6f, -0.7f})});
}

TEST(GradCheckTest, ReduceMaxRows) {
  // Distinct maxima so finite differences are valid.
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return ReduceSumAll(Square(ReduceMaxRows(in[0])));
      },
      {Leaf(3, 2, {0.1f, 2.0f, 1.5f, 0.2f, -0.3f, 0.4f})});
}

TEST(GradCheckTest, Distances) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return EuclideanDistance(in[0], in[1]);
      },
      {Leaf(1, 3, {0.5f, -0.2f, 0.8f}), Leaf(1, 3, {-0.1f, 0.3f, 0.4f})});
}

TEST(GradCheckTest, Reshape) {
  ExpectGradOk(
      [](const std::vector<Tensor>& in) {
        return ReduceSumAll(Square(Reshape(in[0], 1, 6)));
      },
      {Leaf(2, 3, {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f})});
}

}  // namespace
}  // namespace hap
