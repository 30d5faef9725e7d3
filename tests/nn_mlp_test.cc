#include "nn/mlp.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/isa.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/param.h"

namespace eadrl::nn {
namespace {

TEST(MlpTest, ParameterCount) {
  Rng rng(1);
  Mlp net({3, 5, 2}, Activation::kTanh, Activation::kIdentity, rng);
  // Two dense layers -> 4 params (W, b each).
  EXPECT_EQ(net.Params().size(), 4u);
  EXPECT_EQ(net.in_dim(), 3u);
  EXPECT_EQ(net.out_dim(), 2u);
}

TEST(MlpTest, GradCheckTwoHiddenLayers) {
  Rng rng(3);
  Mlp net({2, 4, 3, 1}, Activation::kTanh, Activation::kIdentity, rng);
  math::Vec x{0.7, -0.3};
  math::Vec target{0.25};

  auto loss_value = [&]() {
    return MseLoss(net.Forward(x), target).value;
  };

  net.Forward(x);
  LossResult loss = MseLoss(net.Forward(x), target);
  ZeroGrads(net.Params());
  net.Backward(loss.grad);

  const double eps = 1e-6;
  for (Param* p : net.Params()) {
    for (size_t i = 0; i < p->value.data().size(); ++i) {
      double orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      double up = loss_value();
      p->value.data()[i] = orig - eps;
      double down = loss_value();
      p->value.data()[i] = orig;
      EXPECT_NEAR(p->grad.data()[i], (up - down) / (2.0 * eps), 1e-5);
    }
  }
}

TEST(MlpTest, LearnsNonlinearFunction) {
  // Fit y = x1 * x2 on [-1,1]^2 — requires the hidden layer.
  Rng rng(5);
  Mlp net({2, 16, 1}, Activation::kTanh, Activation::kIdentity, rng);
  Adam opt(0.01);
  opt.Register(net.Params());

  Rng data_rng(11);
  double final_loss = 0.0;
  for (int step = 0; step < 4000; ++step) {
    math::Vec x{data_rng.Uniform(-1, 1), data_rng.Uniform(-1, 1)};
    math::Vec target{x[0] * x[1]};
    LossResult loss = MseLoss(net.Forward(x), target);
    net.Backward(loss.grad);
    opt.StepAndZero();
    final_loss = 0.99 * final_loss + 0.01 * loss.value;
  }
  EXPECT_LT(final_loss, 0.01);
}

TEST(MlpTest, ReinitOutputUniformBoundsWeights) {
  Rng rng(9);
  Mlp net({2, 8, 3}, Activation::kRelu, Activation::kIdentity, rng);
  net.ReinitOutputUniform(1e-3, rng);
  auto params = net.Params();
  // Last two params belong to the output layer.
  for (size_t p = params.size() - 2; p < params.size(); ++p) {
    for (double v : params[p]->value.data()) {
      EXPECT_LE(std::fabs(v), 1e-3);
    }
  }
}

bool SameBits(const math::Matrix& a, const math::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// Every weight and bias drawn at random: the zero biases of a fresh network
// could not show where the chain adds the bias.
void RandomizeParams(Mlp* net, Rng& rng) {
  for (Param* p : net->Params()) {
    for (double& v : p->value.data()) v = rng.Uniform(-0.6, 0.6);
  }
}

math::Matrix RandomRows(size_t rows, size_t cols, Rng& rng) {
  math::Matrix x(rows, cols);
  for (double& v : x.data()) v = rng.Uniform(-2.0, 2.0);
  return x;
}

// The packed form computes Mlp::Infer's bits on both kernel variants: the
// actor's shape (10 -> 64 -> 64 -> 43, one pad lane), a 10-wide output (two)
// and 3 -> 5 -> 7 -> 1 (three, one and three), every hidden activation, over
// row counts below, at and past the tile height. The output and scratch
// buffers stay warm across shapes, as a serving wave's do.
TEST(PackedMlpTest, InferMatchesMlpInferBitwiseOnEveryIsa) {
  const std::vector<std::vector<size_t>> shapes = {
      {10, 64, 64, 43}, {10, 64, 64, 10}, {3, 5, 7, 1}};
  math::Matrix got;
  math::Matrix scratch;
  for (const std::vector<size_t>& sizes : shapes) {
    for (Activation hidden :
         {Activation::kRelu, Activation::kTanh, Activation::kSigmoid}) {
      Rng rng(40 + sizes.back());
      Mlp net(sizes, hidden, Activation::kIdentity, rng);
      RandomizeParams(&net, rng);
      PackedMlp packed;
      packed.Pack(net);
      for (size_t rows : {1, 2, 3, 4, 5, 8, 11, 16, 64}) {
        const math::Matrix x = RandomRows(rows, sizes.front(), rng);
        math::Matrix want;
        math::Matrix want_scratch;
        net.Infer(x, &want, &want_scratch);
        for (math::Isa isa : {math::Isa::kBaseline, math::HostIsa()}) {
          packed.Infer(x, &got, &scratch, isa);
          ASSERT_TRUE(SameBits(got, want))
              << "out " << sizes.back() << " act "
              << static_cast<int>(hidden) << " rows " << rows << " isa "
              << static_cast<int>(isa);
        }
      }
    }
  }
}

// A pack is a snapshot: it keeps the weights it was built from until it is
// packed again, and a repack reuses its storage across shapes.
TEST(PackedMlpTest, RepackFollowsTheWeightsAndClearEmpties) {
  Rng rng(9);
  Mlp small({3, 5, 7, 1}, Activation::kTanh, Activation::kIdentity, rng);
  Mlp net({4, 9, 6}, Activation::kRelu, Activation::kIdentity, rng);
  RandomizeParams(&net, rng);
  PackedMlp packed;
  EXPECT_TRUE(packed.empty());
  packed.Pack(small);
  packed.Pack(net);
  EXPECT_FALSE(packed.empty());
  const math::Matrix x = RandomRows(3, 4, rng);
  math::Matrix before;
  math::Matrix got;
  math::Matrix want;
  math::Matrix scratch;
  net.Infer(x, &before, &scratch);
  packed.Infer(x, &got, &scratch);
  EXPECT_TRUE(SameBits(got, before));

  RandomizeParams(&net, rng);
  packed.Infer(x, &got, &scratch);
  EXPECT_TRUE(SameBits(got, before));  // the old weights still.
  packed.Pack(net);
  net.Infer(x, &want, &scratch);
  packed.Infer(x, &got, &scratch);
  EXPECT_TRUE(SameBits(got, want));
  EXPECT_FALSE(SameBits(want, before));

  packed.Clear();
  EXPECT_TRUE(packed.empty());
}

}  // namespace
}  // namespace eadrl::nn
