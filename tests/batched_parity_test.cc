// Batched-vs-scalar parity: the batch-major kernels must reproduce the
// per-sample reference paths bit for bit. Every comparison is exact `==`,
// which treats +0 and -0 as equal: the sign of an exact zero is the one
// documented divergence. Runs with the chk contract layer forced on so every
// shape/finite/simplex contract is live while the two paths are compared.
#define EADRL_CHK_FORCE_ON 1

#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "chk/chk.h"
#include "common/rng.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "models/forecaster.h"
#include "models/nn_regressors.h"
#include "models/regression_forecaster.h"
#include "nn/dense.h"
#include "nn/mlp.h"
#include "rl/ddpg.h"
#include "ts/series.h"

namespace eadrl {
namespace {

math::Matrix RandomBatch(size_t rows, size_t cols, Rng* rng) {
  math::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->Uniform(-2.0, 2.0);
  return m;
}

constexpr nn::Activation kActs[] = {
    nn::Activation::kIdentity, nn::Activation::kRelu, nn::Activation::kTanh,
    nn::Activation::kSigmoid};

// Dense: ForwardBatch row b == Forward(row b), and one BackwardBatch
// accumulates exactly what B scalar Backward calls accumulate.
TEST(BatchedParityTest, DenseForwardBackwardMatchesScalar) {
  Rng rng(11);
  for (nn::Activation act : kActs) {
    for (size_t batch : {1u, 2u, 5u, 16u}) {
      const size_t in = 3 + static_cast<size_t>(rng.Uniform(0, 5));
      const size_t out = 2 + static_cast<size_t>(rng.Uniform(0, 6));
      Rng init_a(77);
      Rng init_b(77);
      nn::Dense scalar(in, out, act, init_a);
      nn::Dense batched(in, out, act, init_b);

      const math::Matrix x = RandomBatch(batch, in, &rng);
      const math::Matrix g = RandomBatch(batch, out, &rng);

      math::Matrix batched_out;
      batched.ForwardBatch(x, &batched_out);
      std::vector<math::Vec> scalar_dx;
      for (size_t b = 0; b < batch; ++b) {
        math::Vec y = scalar.Forward(x.Row(b));
        for (size_t j = 0; j < out; ++j) {
          EXPECT_EQ(batched_out(b, j), y[j]);
        }
        scalar_dx.push_back(scalar.Backward(g.Row(b)));
      }
      math::Matrix batched_dx;
      batched.BackwardBatch(g, &batched_dx);
      for (size_t b = 0; b < batch; ++b) {
        for (size_t j = 0; j < in; ++j) {
          EXPECT_EQ(batched_dx(b, j), scalar_dx[b][j]);
        }
      }
      auto sp = scalar.Params();
      auto bp = batched.Params();
      for (size_t p = 0; p < sp.size(); ++p) {
        ASSERT_EQ(sp[p]->grad.size(), bp[p]->grad.size());
        for (size_t i = 0; i < sp[p]->grad.size(); ++i) {
          EXPECT_EQ(bp[p]->grad.data()[i], sp[p]->grad.data()[i])
              << "act=" << static_cast<int>(act) << " batch=" << batch;
        }
      }
    }
  }
}

// Mlp: same equivalence through a stack of layers, including the gradient
// flowing all the way back to the input.
TEST(BatchedParityTest, MlpForwardBackwardMatchesScalar) {
  Rng rng(13);
  for (size_t batch : {1u, 4u, 16u}) {
    Rng init_a(99);
    Rng init_b(99);
    nn::Mlp scalar({6, 16, 16, 3}, nn::Activation::kRelu,
                   nn::Activation::kIdentity, init_a);
    nn::Mlp batched({6, 16, 16, 3}, nn::Activation::kRelu,
                    nn::Activation::kIdentity, init_b);
    const math::Matrix x = RandomBatch(batch, 6, &rng);
    const math::Matrix g = RandomBatch(batch, 3, &rng);

    const math::Matrix& batched_out = batched.ForwardBatch(x);
    std::vector<math::Vec> scalar_dx;
    for (size_t b = 0; b < batch; ++b) {
      math::Vec y = scalar.Forward(x.Row(b));
      for (size_t j = 0; j < 3u; ++j) EXPECT_EQ(batched_out(b, j), y[j]);
      scalar_dx.push_back(scalar.Backward(g.Row(b)));
    }
    const math::Matrix& batched_dx = batched.BackwardBatch(g);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t j = 0; j < 6u; ++j) {
        EXPECT_EQ(batched_dx(b, j), scalar_dx[b][j]);
      }
    }
    auto sp = scalar.Params();
    auto bp = batched.Params();
    for (size_t p = 0; p < sp.size(); ++p) {
      for (size_t i = 0; i < sp[p]->grad.size(); ++i) {
        EXPECT_EQ(bp[p]->grad.data()[i], sp[p]->grad.data()[i]);
      }
    }
  }
}

// The no-grad Infer agrees with the train-mode scalar Forward, for a single
// row and for a batch.
TEST(BatchedParityTest, InferencePathsMatchTrainForward) {
  Rng rng(17);
  Rng init(123);
  nn::Mlp net({5, 12, 2}, nn::Activation::kTanh, nn::Activation::kIdentity,
              init);
  const math::Matrix x = RandomBatch(8, 5, &rng);
  math::Matrix infer;
  math::Matrix scratch;
  net.Infer(x, &infer, &scratch);
  math::Matrix one;
  for (size_t b = 0; b < 8u; ++b) {
    const math::Vec row = x.Row(b);
    net.Infer(math::Matrix::FromRows({row}), &one, &scratch);
    math::Vec fwd = net.Forward(row);
    for (size_t j = 0; j < 2u; ++j) {
      EXPECT_EQ(one(0, j), fwd[j]);
      EXPECT_EQ(infer(b, j), fwd[j]);
    }
  }
}

rl::Minibatch MakeDdpgBatch(size_t n, size_t state_dim, size_t action_dim,
                            Rng* rng) {
  std::vector<rl::Transition> batch;
  for (size_t i = 0; i < n; ++i) {
    rl::Transition t;
    for (size_t j = 0; j < state_dim; ++j)
      t.state.push_back(rng->Uniform(-1.0, 1.0));
    math::Vec logits;
    for (size_t j = 0; j < action_dim; ++j)
      logits.push_back(rng->Uniform(-1.0, 1.0));
    t.action = math::Softmax(logits);
    t.reward = rng->Uniform(0.0, 2.0);
    for (size_t j = 0; j < state_dim; ++j)
      t.next_state.push_back(rng->Uniform(-1.0, 1.0));
    t.terminal = (i % 5 == 4);
    batch.push_back(std::move(t));
  }
  return rl::Minibatch::FromTransitions(batch);
}

// Agent and minibatch shape of a parity case.
struct DdpgShape {
  size_t state_dim;
  size_t action_dim;
  std::vector<size_t> hidden;
  size_t batch;
};

void PrintTo(const DdpgShape& shape, std::ostream* os) {
  *os << "state " << shape.state_dim << ", action " << shape.action_dim
      << ", batch " << shape.batch;
}

class DdpgUpdateParity : public ::testing::TestWithParam<DdpgShape> {};

// Updates on two same-seed agents — Update vs the per-transition
// UpdateScalarForTest oracle — must leave identical weights, stats and
// Q-values. The small shape runs every product's
// remainder paths; the paper's shape (state 10, 43 members, hidden {64, 64},
// batch 16) runs full tiles and remainders of all three kernels.
TEST_P(DdpgUpdateParity, SingleUpdateEquivalence) {
  const DdpgShape& shape = GetParam();
  rl::DdpgConfig cfg;
  cfg.state_dim = shape.state_dim;
  cfg.action_dim = shape.action_dim;
  cfg.actor_hidden = shape.hidden;
  cfg.critic_hidden = shape.hidden;
  cfg.seed = 5;

  rl::DdpgAgent batched(cfg);
  rl::DdpgAgent scalar(cfg);

  Rng rng(21);
  const auto batch =
      MakeDdpgBatch(shape.batch, cfg.state_dim, cfg.action_dim, &rng);
  for (int step = 0; step < 3; ++step) {
    const double loss_b = batched.Update(batch);
    const double loss_s = scalar.UpdateScalarForTest(batch);
    EXPECT_EQ(loss_b, loss_s);
    EXPECT_EQ(batched.last_update_stats().mean_abs_q,
              scalar.last_update_stats().mean_abs_q);
    EXPECT_EQ(batched.last_update_stats().action_entropy,
              scalar.last_update_stats().action_entropy);
    EXPECT_EQ(batched.last_update_stats().actor_grad_norm,
              scalar.last_update_stats().actor_grad_norm);
  }
  const auto wb = batched.ActorWeights();
  const auto ws = scalar.ActorWeights();
  ASSERT_EQ(wb.size(), ws.size());
  for (size_t m = 0; m < wb.size(); ++m) {
    ASSERT_EQ(wb[m].size(), ws[m].size());
    for (size_t i = 0; i < wb[m].size(); ++i) {
      EXPECT_EQ(wb[m].data()[i], ws[m].data()[i]);
    }
  }
  const math::Vec probe_s = batch.states.Row(0);
  const math::Vec act_b = batched.Act(probe_s);
  const math::Vec act_s = scalar.Act(probe_s);
  for (size_t j = 0; j < cfg.action_dim; ++j) {
    EXPECT_EQ(act_b[j], act_s[j]);
  }
  EXPECT_EQ(batched.QValue(probe_s, act_b), scalar.QValue(probe_s, act_s));
}

INSTANTIATE_TEST_SUITE_P(Shapes, DdpgUpdateParity,
                         ::testing::Values(DdpgShape{4, 6, {16}, 16},
                                           DdpgShape{10, 43, {64, 64}, 16}));

// ActBatch row b == Act(row b).
TEST(BatchedParityTest, ActBatchMatchesScalarAct) {
  rl::DdpgConfig cfg;
  cfg.state_dim = 4;
  cfg.action_dim = 6;
  rl::DdpgAgent agent(cfg);
  Rng rng(31);
  const math::Matrix states = RandomBatch(7, 4, &rng);
  math::Matrix batched;
  math::Matrix scratch;
  agent.ActBatch(states, &batched, &scratch);
  for (size_t b = 0; b < 7u; ++b) {
    const math::Vec want = agent.Act(states.Row(b));
    for (size_t j = 0; j < 6u; ++j) EXPECT_EQ(batched(b, j), want[j]);
  }
}

// The batched rolling fan-out (RegressionForecaster::TryRollingForecast over
// MlpRegressor::PredictBatch) equals the scalar PredictNext/Observe walk,
// and leaves the forecaster in the same state.
TEST(BatchedParityTest, RollingForecastMatchesScalarWalk) {
  math::Vec values;
  Rng rng(41);
  for (int t = 0; t < 80; ++t) {
    values.push_back(std::sin(0.2 * t) + 0.1 * rng.Uniform(-1.0, 1.0));
  }
  const ts::Series train("train", math::Vec(values.begin(), values.end() - 20));
  const ts::Series eval("eval", math::Vec(values.end() - 20, values.end()));

  models::NnTrainParams params;
  params.epochs = 4;
  auto make = [&params]() {
    return std::make_unique<models::RegressionForecaster>(
        "mlp", 4,
        std::make_unique<models::MlpRegressor>(std::vector<size_t>{8},
                                               params));
  };
  auto batched = make();
  auto scalar = make();
  ASSERT_TRUE(batched->Fit(train).ok());
  ASSERT_TRUE(scalar->Fit(train).ok());

  const math::Vec batched_preds = models::RollingForecast(batched.get(), eval);
  math::Vec scalar_preds;
  for (size_t t = 0; t < eval.size(); ++t) {
    scalar_preds.push_back(scalar->PredictNext());
    scalar->Observe(eval[t]);
  }
  ASSERT_EQ(batched_preds.size(), scalar_preds.size());
  for (size_t t = 0; t < scalar_preds.size(); ++t) {
    EXPECT_EQ(batched_preds[t], scalar_preds[t]);
  }
  // Same post-sweep state: the next one-step forecast agrees too.
  EXPECT_EQ(batched->PredictNext(), scalar->PredictNext());
}

}  // namespace
}  // namespace eadrl
