#include "nn/conv1d.h"

#include <gtest/gtest.h>

#include "nn/loss.h"
#include "nn/param.h"

namespace eadrl::nn {
namespace {

TEST(Conv1dTest, OutputShapeValidPadding) {
  Rng rng(1);
  Conv1d conv(1, 3, 2, Activation::kIdentity, rng);
  math::Matrix input(5, 1);
  math::Matrix out = conv.Forward(input);
  EXPECT_EQ(out.rows(), 4u);  // 5 - 2 + 1.
  EXPECT_EQ(out.cols(), 3u);
}

TEST(Conv1dTest, KnownKernelComputesMovingDifference) {
  Rng rng(1);
  Conv1d conv(1, 1, 2, Activation::kIdentity, rng);
  auto params = conv.Params();
  // Kernel [-1, 1] computes x[t+1] - x[t].
  params[0]->value(0, 0) = -1.0;
  params[0]->value(0, 1) = 1.0;
  params[1]->value(0, 0) = 0.0;

  math::Matrix input(4, 1);
  input(0, 0) = 1.0;
  input(1, 0) = 3.0;
  input(2, 0) = 6.0;
  input(3, 0) = 10.0;
  math::Matrix out = conv.Forward(input);
  EXPECT_DOUBLE_EQ(out(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(out(2, 0), 4.0);
}

TEST(Conv1dTest, GradCheck) {
  Rng rng(3);
  Conv1d conv(2, 3, 2, Activation::kTanh, rng);
  math::Matrix input(4, 2);
  Rng data_rng(5);
  for (double& v : input.data()) v = data_rng.Uniform(-1, 1);
  math::Matrix target(3, 3);
  for (double& v : target.data()) v = data_rng.Uniform(-1, 1);

  auto loss_value = [&]() {
    math::Matrix out = conv.Forward(input);
    double s = 0.0;
    for (size_t i = 0; i < out.data().size(); ++i) {
      double d = out.data()[i] - target.data()[i];
      s += d * d;
    }
    return s;
  };

  math::Matrix out = conv.Forward(input);
  math::Matrix grad_out(out.rows(), out.cols());
  for (size_t i = 0; i < out.data().size(); ++i) {
    grad_out.data()[i] = 2.0 * (out.data()[i] - target.data()[i]);
  }
  ZeroGrads(conv.Params());
  math::Matrix grad_in = conv.Backward(grad_out);

  const double eps = 1e-6;
  for (Param* p : conv.Params()) {
    for (size_t i = 0; i < p->value.data().size(); ++i) {
      double orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      double up = loss_value();
      p->value.data()[i] = orig - eps;
      double down = loss_value();
      p->value.data()[i] = orig;
      EXPECT_NEAR(p->grad.data()[i], (up - down) / (2.0 * eps), 1e-4);
    }
  }
  for (size_t i = 0; i < input.data().size(); ++i) {
    double orig = input.data()[i];
    input.data()[i] = orig + eps;
    double up = loss_value();
    input.data()[i] = orig - eps;
    double down = loss_value();
    input.data()[i] = orig;
    EXPECT_NEAR(grad_in.data()[i], (up - down) / (2.0 * eps), 1e-4);
  }
}

TEST(LossTest, MseValueAndGradient) {
  LossResult r = MseLoss({1.0, 3.0}, {0.0, 1.0});
  EXPECT_DOUBLE_EQ(r.value, (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 1.0);
  EXPECT_DOUBLE_EQ(r.grad[1], 2.0);
}

}  // namespace
}  // namespace eadrl::nn
