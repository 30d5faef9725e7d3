#include "nn/optimizer.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eadrl::nn {
namespace {

// Minimizes f(w) = (w - 3)^2 with gradient 2(w - 3).
double Minimize(Adam& opt, int steps) {
  Param w(1, 1);
  w.value(0, 0) = 0.0;
  opt.Register({&w});
  for (int i = 0; i < steps; ++i) {
    w.grad(0, 0) = 2.0 * (w.value(0, 0) - 3.0);
    opt.StepAndZero();
  }
  return w.value(0, 0);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Adam opt(0.1);
  EXPECT_NEAR(Minimize(opt, 500), 3.0, 1e-4);
}

TEST(AdamTest, StepLeavesGradientsUntouchedUntilZero) {
  Param w(1, 1);
  w.grad(0, 0) = 1.0;
  Adam opt(0.01);
  opt.Register({&w});
  opt.Step();
  EXPECT_DOUBLE_EQ(w.grad(0, 0), 1.0);
  ZeroGrads({&w});
  EXPECT_DOUBLE_EQ(w.grad(0, 0), 0.0);
}

TEST(AdamTest, FirstStepHasLearningRateMagnitude) {
  // With bias correction, the first Adam update is ~lr * sign(grad).
  Param w(1, 1);
  w.value(0, 0) = 0.0;
  w.grad(0, 0) = 123.0;
  Adam opt(0.01);
  opt.Register({&w});
  opt.Step();
  EXPECT_NEAR(w.value(0, 0), -0.01, 1e-6);
}

// Adam::Step against the scalar per-element formula (subnormal flush
// included), bit for bit. Lengths 1-9 put an element in every lane position
// and every remainder; the gradients mix live values with zeros and
// subnormals so both flush selects fire on both lanes. The 400 steps cross
// t = 356, where 1 - 0.9^t becomes exactly 1.0 and Step stops dividing by
// it; the formula here always divides.
TEST(AdamTest, StepMatchesScalarFormula) {
  constexpr double kLr = 0.01;
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  for (size_t len = 1; len <= 9; ++len) {
    Rng rng(100 + len);
    Param p(1, len);
    for (double& w : p.value.data()) w = rng.Normal(0.0, 0.5);
    std::vector<double> w = p.value.data();
    std::vector<double> m(len, 0.0);
    std::vector<double> v(len, 0.0);
    Adam adam(kLr, kBeta1, kBeta2, kEps);
    adam.Register({&p});
    for (int t = 1; t <= 400; ++t) {
      std::vector<double>& g = p.grad.data();
      for (size_t j = 0; j < len; ++j) {
        switch ((j + static_cast<size_t>(t)) % 4) {
          case 0: g[j] = 0.0; break;
          case 1: g[j] = (j % 2 == 0 ? 1.0 : -1.0) * 1e-310; break;
          default: g[j] = rng.Normal(0.0, 1.0); break;
        }
      }
      adam.Step();
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
      EXPECT_EQ(bc1 == 1.0, t >= 356) << "t=" << t;
      for (size_t j = 0; j < len; ++j) {
        double mj = kBeta1 * m[j] + (1.0 - kBeta1) * g[j];
        double vj = kBeta2 * v[j] + (1.0 - kBeta2) * g[j] * g[j];
        if (std::fabs(mj) < kMinNormal) mj = 0.0;
        if (vj < kMinNormal) vj = 0.0;
        m[j] = mj;
        v[j] = vj;
        w[j] -= kLr * (mj / bc1) / (std::sqrt(vj / bc2) + kEps);
      }
      ASSERT_EQ(std::memcmp(p.value.data().data(), w.data(),
                            len * sizeof(double)),
                0)
          << "len=" << len << " step=" << t;
    }
  }
}

// Textbook Adam with nn::Adam's arithmetic before it flushed subnormal
// moments: nothing is flushed, so a dead unit's first moment decays into the
// subnormal range and stays there.
class ReferenceAdam {
 public:
  explicit ReferenceAdam(const std::vector<std::vector<double>>& weights)
      : m_(ZerosLike(weights)), v_(ZerosLike(weights)) {}

  void Step(std::vector<std::vector<double>>* weights,
            const std::vector<std::vector<double>>& grads) {
    ++t_;
    double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
    double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
    for (size_t i = 0; i < weights->size(); ++i) {
      std::vector<double>& w = (*weights)[i];
      const std::vector<double>& g = grads[i];
      for (size_t j = 0; j < w.size(); ++j) {
        m_[i][j] = kBeta1 * m_[i][j] + (1.0 - kBeta1) * g[j];
        v_[i][j] = kBeta2 * v_[i][j] + (1.0 - kBeta2) * g[j] * g[j];
        double mhat = m_[i][j] / bc1;
        double vhat = v_[i][j] / bc2;
        w[j] -= kLr * mhat / (std::sqrt(vhat) + kEps);
      }
    }
  }

  size_t SubnormalFirstMoments() const {
    size_t n = 0;
    for (const auto& m : m_) {
      for (double x : m) n += std::fpclassify(x) == FP_SUBNORMAL ? 1 : 0;
    }
    return n;
  }

  static constexpr double kLr = 0.01;  // the largest rate the repo trains at.
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

 private:
  static std::vector<std::vector<double>> ZerosLike(
      const std::vector<std::vector<double>>& weights) {
    std::vector<std::vector<double>> z;
    for (const auto& w : weights) z.emplace_back(w.size(), 0.0);
    return z;
  }

  long long t_ = 0;
  std::vector<std::vector<double>> m_, v_;
};

// Flushing subnormal moments must not move a single weight. The parameters
// are shaped like the 10->64->64->43 actor (7 659 entries); every fourth
// entry acts as a dead unit: live gradients for 500 steps, exactly zero for
// 8 000 (long enough for its first moment to go subnormal), then one live
// step. nn::Adam must match the unflushed reference bit for bit.
TEST(AdamTest, FlushingSubnormalMomentsMovesNoWeight) {
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {10, 64}, {1, 64}, {64, 64}, {1, 64}, {64, 43}, {1, 43}};
  std::vector<Param> params;
  std::vector<std::vector<double>> ref_weights, base_grads;
  Rng rng(13);
  for (const auto& [rows, cols] : shapes) {
    params.emplace_back(rows, cols);
    std::vector<double> w(rows * cols), g(rows * cols);
    for (double& x : w) x = rng.Normal(0.0, 0.2);
    for (double& x : g) x = rng.Normal(0.0, 0.1);
    params.back().value.data() = w;
    ref_weights.push_back(std::move(w));
    base_grads.push_back(std::move(g));
  }
  std::vector<Param*> param_ptrs;
  for (Param& p : params) param_ptrs.push_back(&p);
  Adam adam(ReferenceAdam::kLr, ReferenceAdam::kBeta1, ReferenceAdam::kBeta2,
            ReferenceAdam::kEps);
  adam.Register(param_ptrs);
  ReferenceAdam reference(ref_weights);

  std::vector<std::vector<double>> grads = base_grads;
  auto step = [&](int s, bool dead_units_live) {
    // Live gradients vary in size and sign from step to step.
    const double scale = (s % 3 == 0 ? -1.0 : 1.0) * (1.0 + 0.25 * (s % 5));
    for (size_t i = 0; i < grads.size(); ++i) {
      for (size_t j = 0; j < grads[i].size(); ++j) {
        const bool dead = j % 4 == 0 && !dead_units_live;
        grads[i][j] = dead ? 0.0 : scale * base_grads[i][j];
      }
      params[i].grad.data() = grads[i];
    }
    adam.Step();
    reference.Step(&ref_weights, grads);
  };
  auto expect_bitwise_equal = [&](const char* phase) {
    for (size_t i = 0; i < params.size(); ++i) {
      const std::vector<double>& got = params[i].value.data();
      ASSERT_EQ(got.size(), ref_weights[i].size());
      EXPECT_EQ(std::memcmp(got.data(), ref_weights[i].data(),
                            got.size() * sizeof(double)),
                0)
          << "parameter " << i << " after " << phase;
    }
  };

  int s = 0;
  for (; s < 500; ++s) step(s, /*dead_units_live=*/true);
  for (; s < 8500; ++s) step(s, /*dead_units_live=*/false);
  // The reference reached the regime the flush exists for.
  EXPECT_GT(reference.SubnormalFirstMoments(), 0u);
  expect_bitwise_equal("the zero-gradient phase");
  step(s, /*dead_units_live=*/true);
  expect_bitwise_equal("the final live step");
}

}  // namespace
}  // namespace eadrl::nn
