#include "nn/lstm.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/init.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/param.h"

namespace eadrl::nn {
namespace {

TEST(LstmTest, OutputShapes) {
  Rng rng(1);
  Lstm lstm(2, 4, rng);
  math::Matrix seq{{1.0, 0.0}, {0.5, -0.5}, {0.0, 1.0}};
  const math::Matrix& hs = lstm.Forward(seq);
  EXPECT_EQ(hs.rows(), 3u);
  EXPECT_EQ(hs.cols(), 4u);
  const math::Matrix& dx = lstm.Backward(math::Matrix(3, 4, 0.1));
  EXPECT_EQ(dx.rows(), 3u);
  EXPECT_EQ(dx.cols(), 2u);
}

TEST(LstmTest, HiddenStatesBounded) {
  // h = o * tanh(c) with o in (0,1), so |h| < 1.
  Rng rng(2);
  Lstm lstm(1, 8, rng);
  const math::Matrix& hs = lstm.Forward(math::Matrix(20, 1, 100.0));
  for (double v : hs.data()) EXPECT_LT(std::fabs(v), 1.0);
}

TEST(LstmTest, GradCheckThroughTime) {
  Rng rng(3);
  const size_t hidden = 3;
  Lstm lstm(1, hidden, rng);
  math::Matrix seq{{0.5}, {-0.3}, {0.8}, {0.1}};
  math::Vec target{0.2, -0.4, 0.6};
  const size_t last = seq.rows() - 1;

  auto loss_value = [&]() {
    return MseLoss(lstm.Forward(seq).Row(last), target).value;
  };

  LossResult loss = MseLoss(lstm.Forward(seq).Row(last), target);
  ZeroGrads(lstm.Params());
  math::Matrix grad_hidden(seq.rows(), hidden, 0.0);
  grad_hidden.SetRow(last, loss.grad);
  const math::Matrix dx = lstm.Backward(grad_hidden);

  const double eps = 1e-6;
  for (Param* p : lstm.Params()) {
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
  // Input gradients.
  for (size_t t = 0; t < seq.rows(); ++t) {
    double orig = seq(t, 0);
    seq(t, 0) = orig + eps;
    double up = loss_value();
    seq(t, 0) = orig - eps;
    double down = loss_value();
    seq(t, 0) = orig;
    EXPECT_NEAR(dx(t, 0), (up - down) / (2.0 * eps), 1e-5);
  }
}

TEST(LstmTest, LearnsToRememberFirstInput) {
  // Target = first element of the sequence; the LSTM must carry it across
  // 5 steps. A working BPTT should drive the loss near zero.
  Rng rng(5);
  Lstm lstm(1, 8, rng);
  Dense head(8, 1, Activation::kIdentity, rng);
  std::vector<Param*> params = lstm.Params();
  for (Param* p : head.Params()) params.push_back(p);
  Adam opt(0.02);
  opt.Register(params);

  Rng data_rng(9);
  math::Matrix seq(5, 1);
  math::Matrix grad_hidden(5, 8, 0.0);
  double ema_loss = 1.0;
  for (int step = 0; step < 3000; ++step) {
    for (size_t t = 0; t < 5; ++t) seq(t, 0) = data_rng.Uniform(-1, 1);
    const double first = seq(0, 0);

    math::Vec pred = head.Forward(lstm.Forward(seq).Row(4));
    LossResult loss = MseLoss(pred, {first});
    grad_hidden.SetRow(4, head.Backward(loss.grad));
    lstm.Backward(grad_hidden);
    ClipGradNorm(params, 5.0);
    opt.StepAndZero();
    ema_loss = 0.99 * ema_loss + 0.01 * loss.value;
  }
  EXPECT_LT(ema_loss, 0.05);
}

// ---------------------------------------------------------------------------
// Oracle: the per-step LSTM the matrix API replaced — one StepCache of
// vectors per step, MatVec gate pre-activations and bounds-checked gradient
// loops — kept verbatim as the reference the flat-cache Lstm must match bit
// for bit.

class ReferenceLstm {
 public:
  ReferenceLstm(size_t input_size, size_t hidden_size)
      : input_size_(input_size),
        hidden_size_(hidden_size),
        w_(4 * hidden_size, input_size),
        u_(4 * hidden_size, hidden_size),
        b_(4 * hidden_size, 1) {}

  std::vector<math::Vec> Forward(const std::vector<math::Vec>& inputs) {
    cache_.clear();
    const size_t h = hidden_size_;
    math::Vec h_prev(h, 0.0), c_prev(h, 0.0);
    std::vector<math::Vec> hs;
    for (const math::Vec& x : inputs) {
      math::Vec z = w_.value.MatVec(x);
      math::Vec uz = u_.value.MatVec(h_prev);
      for (size_t i = 0; i < 4 * h; ++i) z[i] += uz[i] + b_.value(i, 0);

      StepCache sc;
      sc.input = x;
      sc.h_prev = h_prev;
      sc.c_prev = c_prev;
      sc.i.resize(h);
      sc.f.resize(h);
      sc.g.resize(h);
      sc.o.resize(h);
      sc.c.resize(h);
      sc.tanh_c.resize(h);
      math::Vec h_new(h);
      for (size_t j = 0; j < h; ++j) {
        sc.i[j] = SigmoidScalar(z[j]);
        sc.f[j] = SigmoidScalar(z[h + j]);
        sc.g[j] = TanhScalar(z[2 * h + j]);
        sc.o[j] = SigmoidScalar(z[3 * h + j]);
        sc.c[j] = sc.f[j] * c_prev[j] + sc.i[j] * sc.g[j];
        sc.tanh_c[j] = TanhScalar(sc.c[j]);
        h_new[j] = sc.o[j] * sc.tanh_c[j];
      }
      h_prev = h_new;
      c_prev = sc.c;
      hs.push_back(h_new);
      cache_.push_back(std::move(sc));
    }
    return hs;
  }

  std::vector<math::Vec> Backward(const std::vector<math::Vec>& grad_hidden) {
    const size_t h = hidden_size_;
    const size_t t_steps = cache_.size();
    std::vector<math::Vec> grad_inputs(t_steps);
    math::Vec dh_next(h, 0.0), dc_next(h, 0.0);
    for (size_t tt = 0; tt < t_steps; ++tt) {
      size_t t = t_steps - 1 - tt;
      const StepCache& sc = cache_[t];
      math::Vec dh(h);
      for (size_t j = 0; j < h; ++j) dh[j] = grad_hidden[t][j] + dh_next[j];
      math::Vec dz(4 * h);
      math::Vec dc(h);
      for (size_t j = 0; j < h; ++j) {
        double d_o = dh[j] * sc.tanh_c[j];
        dc[j] = dh[j] * sc.o[j] * (1.0 - sc.tanh_c[j] * sc.tanh_c[j]) +
                dc_next[j];
        double d_i = dc[j] * sc.g[j];
        double d_f = dc[j] * sc.c_prev[j];
        double d_g = dc[j] * sc.i[j];
        dz[j] = d_i * sc.i[j] * (1.0 - sc.i[j]);
        dz[h + j] = d_f * sc.f[j] * (1.0 - sc.f[j]);
        dz[2 * h + j] = d_g * (1.0 - sc.g[j] * sc.g[j]);
        dz[3 * h + j] = d_o * sc.o[j] * (1.0 - sc.o[j]);
      }
      for (size_t r = 0; r < 4 * h; ++r) {
        b_.grad(r, 0) += dz[r];
        if (dz[r] == 0.0) continue;
        for (size_t cix = 0; cix < input_size_; ++cix) {
          w_.grad(r, cix) += dz[r] * sc.input[cix];
        }
        for (size_t cix = 0; cix < h; ++cix) {
          u_.grad(r, cix) += dz[r] * sc.h_prev[cix];
        }
      }
      grad_inputs[t] = w_.value.TransposeMatVec(dz);
      dh_next = u_.value.TransposeMatVec(dz);
      for (size_t j = 0; j < h; ++j) dc_next[j] = dc[j] * sc.f[j];
    }
    return grad_inputs;
  }

  std::vector<Param*> Params() { return {&w_, &u_, &b_}; }

 private:
  struct StepCache {
    math::Vec input;
    math::Vec h_prev;
    math::Vec c_prev;
    math::Vec i, f, g, o;
    math::Vec c;
    math::Vec tanh_c;
  };

  size_t input_size_;
  size_t hidden_size_;
  Param w_;
  Param u_;
  Param b_;
  std::vector<StepCache> cache_;
};

// Number of elements where `got` and `want` differ under ==; the first
// mismatch is reported through `what`.
size_t Mismatches(const math::Vec& got, const math::Vec& want,
                  const std::string& what) {
  EXPECT_EQ(got.size(), want.size()) << what;
  size_t bad = 0;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] == want[i]) continue;
    if (bad++ == 0) {
      ADD_FAILURE() << what << " element " << i << ": " << got[i]
                    << " != " << want[i];
    }
  }
  return bad;
}

struct OracleShape {
  size_t input;
  size_t hidden;
  size_t steps;
};

void PrintTo(const OracleShape& shape, std::ostream* os) {
  *os << "(input " << shape.input << ", hidden " << shape.hidden << ", T "
      << shape.steps << ")";
}

// (shape, gradients at every step). Every step is StackedLstm's lower
// layer; the last step only is every other LSTM-family regressor.
class LstmOracleTest
    : public ::testing::TestWithParam<std::tuple<OracleShape, bool>> {};

TEST_P(LstmOracleTest, TrainsBitIdenticalToPerStepReference) {
  const auto [shape, every_step] = GetParam();
  const auto [input, hidden, steps] = shape;
  Rng init_rng(17);
  Lstm lstm(input, hidden, init_rng);
  ReferenceLstm ref(input, hidden);
  std::vector<Param*> params = lstm.Params();
  std::vector<Param*> ref_params = ref.Params();
  CopyParams(ref_params, params);
  Adam opt(0.05);
  opt.Register(params);
  Adam ref_opt(0.05);
  ref_opt.Register(ref_params);

  Rng data_rng(23);
  math::Matrix seq(steps, input);
  math::Matrix grad_hidden(steps, hidden, 0.0);
  std::vector<math::Vec> ref_seq(steps, math::Vec(input));
  std::vector<math::Vec> ref_grad(steps, math::Vec(hidden, 0.0));
  for (int round = 0; round < 50; ++round) {
    const std::string at = "round " + std::to_string(round);
    for (size_t t = 0; t < steps; ++t) {
      for (size_t k = 0; k < input; ++k) {
        seq(t, k) = ref_seq[t][k] = data_rng.Uniform(-2.0, 2.0);
      }
      if (!every_step && t + 1 < steps) continue;
      for (size_t j = 0; j < hidden; ++j) {
        grad_hidden(t, j) = ref_grad[t][j] = data_rng.Uniform(-1.0, 1.0);
      }
    }

    const math::Matrix& hs = lstm.Forward(seq);
    std::vector<math::Vec> ref_hs = ref.Forward(ref_seq);
    ASSERT_EQ(hs.rows(), steps);
    for (size_t t = 0; t < steps; ++t) {
      ASSERT_EQ(Mismatches(hs.Row(t), ref_hs[t], at + " h_t"), 0u);
    }
    const math::Matrix& dx = lstm.Backward(grad_hidden);
    std::vector<math::Vec> ref_dx = ref.Backward(ref_grad);
    ASSERT_EQ(dx.rows(), steps);
    for (size_t t = 0; t < steps; ++t) {
      ASSERT_EQ(Mismatches(dx.Row(t), ref_dx[t], at + " dL/dx_t"), 0u);
    }
    // A small clip threshold so the scaled branch runs too.
    EXPECT_EQ(ClipGradNorm(params, 0.5), ClipGradNorm(ref_params, 0.5));
    for (size_t p = 0; p < params.size(); ++p) {
      ASSERT_EQ(Mismatches(params[p]->grad.data(), ref_params[p]->grad.data(),
                           at + " grad " + std::to_string(p)),
                0u);
    }
    opt.StepAndZero();
    ref_opt.StepAndZero();
    for (size_t p = 0; p < params.size(); ++p) {
      ASSERT_EQ(Mismatches(params[p]->value.data(),
                           ref_params[p]->value.data(),
                           at + " param " + std::to_string(p)),
                0u);
    }
  }
}

std::string OracleCaseName(
    const ::testing::TestParamInfo<std::tuple<OracleShape, bool>>& param) {
  const OracleShape& shape = std::get<0>(param.param);
  return "In" + std::to_string(shape.input) + "H" +
         std::to_string(shape.hidden) + "T" + std::to_string(shape.steps) +
         (std::get<1>(param.param) ? "EveryStep" : "LastStep");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LstmOracleTest,
    ::testing::Combine(::testing::Values(OracleShape{1, 1, 1},
                                         OracleShape{1, 8, 5},
                                         OracleShape{1, 24, 5},
                                         OracleShape{3, 12, 4},
                                         OracleShape{8, 12, 3}),
                       ::testing::Bool()),
    OracleCaseName);

}  // namespace
}  // namespace eadrl::nn
