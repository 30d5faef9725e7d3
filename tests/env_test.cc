#include "rl/env.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/eadrl.h"
#include "math/stats.h"

namespace eadrl::rl {
namespace {

// 6 time steps, 2 models: model 0 is perfect, model 1 is off by +2.
EnsembleEnv MakePerfectVsBiasedEnv(RewardType reward) {
  math::Vec actuals{1, 2, 3, 4, 5, 6};
  math::Matrix preds(6, 2);
  for (size_t t = 0; t < 6; ++t) {
    preds(t, 0) = actuals[t];
    preds(t, 1) = actuals[t] + 2.0;
  }
  return EnsembleEnv(preds, actuals, /*omega=*/2, reward);
}

TEST(EnvTest, Dimensions) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  EXPECT_EQ(env.state_dim(), 2u);
  EXPECT_EQ(env.action_dim(), 2u);
  EXPECT_EQ(env.horizon(), 4u);
}

TEST(EnvTest, ResetReturnsWindowStandardizedUniformEnsemble) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  math::Vec s = env.Reset();
  ASSERT_EQ(s.size(), 2u);
  // Uniform ensemble outputs: (1+3)/2=2, (2+4)/2=3; standardized by the
  // window's own statistics (mean 2.5, population stddev 0.5), so the state
  // encodes the recent *shape* independent of the series level.
  EXPECT_NEAR(s[0], -1.0, 1e-9);
  EXPECT_NEAR(s[1], 1.0, 1e-9);
}

TEST(EnvTest, RankRewardMaxWhenWeightsOnBestModel) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  env.Reset();
  // All weight on the perfect model: ensemble ties with best => rank 1,
  // reward = m + 1 - 1 = 2.
  double r = env.RewardAt(2, {1.0, 0.0});
  EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(EnvTest, RankRewardLowWhenWeightsOnWorstModel) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  env.Reset();
  // All weight on the biased model: ensemble error 2, beaten by model 0
  // (error 0) and tied with model 1 => rank 2, reward = 1.
  double r = env.RewardAt(2, {0.0, 1.0});
  EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(EnvTest, RankRewardIntermediateForMixedWeights) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  env.Reset();
  // Equal weights: ensemble error 1 < 2, beats model 1, loses to model 0.
  double r = env.RewardAt(2, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(r, 1.0);  // rank 2 of 3.
}

TEST(EnvTest, NrmseRewardHigherForBetterWeights) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kOneMinusNrmse);
  env.Reset();
  double good = env.RewardAt(2, {1.0, 0.0});
  double bad = env.RewardAt(2, {0.0, 1.0});
  EXPECT_GT(good, bad);
  EXPECT_DOUBLE_EQ(good, 1.0);  // zero error => 1 - 0.
}

TEST(EnvTest, StepAdvancesAndTerminates) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  env.Reset();
  size_t steps = 0;
  bool done = false;
  while (!done) {
    auto sr = env.Step({0.5, 0.5});
    done = sr.done;
    ++steps;
    ASSERT_LE(steps, 10u);
  }
  EXPECT_EQ(steps, env.horizon());
}

TEST(EnvTest, TransitionIsDeterministicSlide) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  env.Reset();
  auto sr = env.Step({1.0, 0.0});
  // Next window drops the oldest ensemble output (2) and appends the new
  // prediction (weights (1,0) => prediction = actual = 3 at t=2), giving
  // raw window (3, 3); a flat window standardizes to zeros (stddev floored
  // by the validation stddev).
  EXPECT_NEAR(sr.next_state[0], 0.0, 1e-9);
  EXPECT_NEAR(sr.next_state[1], 0.0, 1e-9);
  EXPECT_FALSE(sr.done);
}

TEST(EnvTest, PeekMatchesStepWithoutAdvancing) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  env.Reset();
  auto peeked = env.Peek({0.5, 0.5});
  auto stepped = env.Step({0.5, 0.5});
  EXPECT_DOUBLE_EQ(peeked.reward, stepped.reward);
  EXPECT_EQ(peeked.next_state, stepped.next_state);
  EXPECT_EQ(peeked.done, stepped.done);
}

TEST(EnvTest, PeekDoesNotMutateState) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  env.Reset();
  env.Peek({1.0, 0.0});
  env.Peek({0.0, 1.0});
  // Stepping after peeks gives the same result as stepping immediately.
  EnsembleEnv fresh = MakePerfectVsBiasedEnv(RewardType::kRank);
  fresh.Reset();
  auto a = env.Step({0.5, 0.5});
  auto b = fresh.Step({0.5, 0.5});
  EXPECT_DOUBLE_EQ(a.reward, b.reward);
  EXPECT_EQ(a.next_state, b.next_state);
}

TEST(EnvTest, SecondEpisodeIdenticalToFirst) {
  EnsembleEnv env = MakePerfectVsBiasedEnv(RewardType::kRank);
  math::Vec s1 = env.Reset();
  env.Step({0.5, 0.5});
  math::Vec s2 = env.Reset();
  EXPECT_EQ(s1, s2);
}

// A constant validation segment has stddev 0, which EadrlCombiner::Initialize
// stores as 1.0 for the online stage. Training must scale its states the
// same way: members 1e-3 apart give a window stddev below 0.1, so a floor of
// 0.1 x 0 would standardize by the window's own spread and blow the states
// up by a factor of ~100 against the ones the deployed policy sees.
TEST(EnvTest, ConstantActualsScaleStatesLikeTheOnlineStage) {
  constexpr size_t kOmega = 5;
  constexpr size_t kMembers = 3;
  const math::Vec actuals(12, 3.0);
  math::Matrix preds(12, kMembers);
  for (size_t t = 0; t < 12; ++t) {
    for (size_t i = 0; i < kMembers; ++i) {
      preds(t, i) = 3.0 + 1e-3 * static_cast<double>(i + t % 3);
    }
  }
  EnsembleEnv env(preds, actuals, kOmega, RewardType::kRank);
  const math::Vec state = env.Reset();

  core::OnlineState online;  // what Initialize seeds, before any Predict.
  online.state_std = 1.0;
  for (size_t t = 0; t < kOmega; ++t) {
    double s = 0.0;
    for (size_t i = 0; i < kMembers; ++i) s += preds(t, i);
    online.window.push_back(s / static_cast<double>(kMembers));
  }
  const math::Vec online_state = core::OnlineStateVec(online);
  ASSERT_EQ(state.size(), online_state.size());
  for (size_t k = 0; k < state.size(); ++k) {
    EXPECT_EQ(state[k], online_state[k]) << "k=" << k;
  }
}

// EnsembleEnv as it was before it cached anything: the validation stddev
// (1.0 for a constant segment) and every member's window RMSE recomputed on
// each call, and Peek sliding a copy of the window. EnsembleEnv must match it
// bit for bit.
class UncachedEnv {
 public:
  UncachedEnv(math::Matrix predictions, math::Vec actuals, size_t omega,
              RewardType reward_type, double diversity_coef)
      : predictions_(std::move(predictions)),
        actuals_(std::move(actuals)),
        omega_(omega),
        reward_type_(reward_type),
        diversity_coef_(diversity_coef) {}

  math::Vec Reset() {
    const size_t m = predictions_.cols();
    window_.clear();
    for (size_t t = 0; t < omega_; ++t) {
      double s = 0.0;
      for (size_t i = 0; i < m; ++i) s += predictions_(t, i);
      window_.push_back(s / static_cast<double>(m));
    }
    t_ = omega_;
    return StateVecFor(window_);
  }

  EnsembleEnv::StepResult Peek(const math::Vec& weights) const {
    EnsembleEnv::StepResult result;
    result.reward = RewardAt(t_, weights);
    double pred = 0.0;
    for (size_t i = 0; i < predictions_.cols(); ++i) {
      pred += weights[i] * predictions_(t_, i);
    }
    result.ensemble_prediction = pred;
    result.actual = actuals_[t_];
    std::deque<double> next_window(window_.begin() + 1, window_.end());
    next_window.push_back(pred);
    result.done = (t_ + 1 >= predictions_.rows());
    result.next_state = StateVecFor(next_window);
    return result;
  }

  EnsembleEnv::StepResult Step(const math::Vec& weights) {
    EnsembleEnv::StepResult result = Peek(weights);
    double pred = 0.0;
    for (size_t i = 0; i < predictions_.cols(); ++i) {
      pred += weights[i] * predictions_(t_, i);
    }
    window_.push_back(pred);
    window_.pop_front();
    ++t_;
    return result;
  }

  double RewardAt(size_t t, const math::Vec& weights) const {
    const size_t m = predictions_.cols();
    const size_t begin = t + 1 - omega_;
    double ens_sse = 0.0;
    for (size_t j = begin; j <= t; ++j) {
      double pred = 0.0;
      for (size_t i = 0; i < m; ++i) pred += weights[i] * predictions_(j, i);
      double d = pred - actuals_[j];
      ens_sse += d * d;
    }
    double ens_rmse = std::sqrt(ens_sse / static_cast<double>(omega_));
    double diversity_bonus = 0.0;
    if (diversity_coef_ > 0.0) {
      double dispersion = 0.0;
      for (size_t j = begin; j <= t; ++j) {
        double ens = 0.0;
        for (size_t i = 0; i < m; ++i) ens += weights[i] * predictions_(j, i);
        for (size_t i = 0; i < m; ++i) {
          double d = predictions_(j, i) - ens;
          dispersion += weights[i] * d * d;
        }
      }
      dispersion = std::sqrt(dispersion / static_cast<double>(omega_));
      double sd = math::Stddev(actuals_);
      if (sd <= 1e-12) sd = 1.0;
      diversity_bonus = diversity_coef_ * dispersion / sd;
    }
    if (reward_type_ == RewardType::kOneMinusNrmse) {
      double lo = actuals_[begin], hi = actuals_[begin];
      for (size_t j = begin; j <= t; ++j) {
        lo = std::min(lo, actuals_[j]);
        hi = std::max(hi, actuals_[j]);
      }
      double range = hi - lo;
      if (range <= 1e-12) range = 1.0;
      return 1.0 - ens_rmse / range + diversity_bonus;
    }
    size_t rank = 1;
    for (size_t i = 0; i < m; ++i) {
      double sse = 0.0;
      for (size_t j = begin; j <= t; ++j) {
        double d = predictions_(j, i) - actuals_[j];
        sse += d * d;
      }
      double rmse = std::sqrt(sse / static_cast<double>(omega_));
      if (rmse < ens_rmse) ++rank;
    }
    return static_cast<double>(m + 1 - rank) + diversity_bonus;
  }

 private:
  math::Vec StateVecFor(const std::deque<double>& window) const {
    double mean = 0.0;
    for (double v : window) mean += v;
    mean /= static_cast<double>(window.size());
    double var = 0.0;
    for (double v : window) var += (v - mean) * (v - mean);
    var /= static_cast<double>(window.size());
    double global_sd = math::Stddev(actuals_);
    if (global_sd <= 1e-12) global_sd = 1.0;
    double sd = std::max(std::sqrt(var), 0.1 * global_sd);
    if (sd <= 1e-12) sd = 1.0;
    math::Vec s(window.begin(), window.end());
    for (double& v : s) v = std::clamp((v - mean) / sd, -4.0, 4.0);
    return s;
  }

  math::Matrix predictions_;
  math::Vec actuals_;
  size_t omega_;
  RewardType reward_type_;
  double diversity_coef_;
  size_t t_ = 0;
  std::deque<double> window_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectSameResult(const EnsembleEnv::StepResult& got,
                      const EnsembleEnv::StepResult& want,
                      const std::string& where) {
  ASSERT_TRUE(SameBits(got.reward, want.reward))
      << where << ": reward " << got.reward << " vs " << want.reward;
  ASSERT_TRUE(SameBits(got.ensemble_prediction, want.ensemble_prediction))
      << where;
  ASSERT_TRUE(SameBits(got.actual, want.actual)) << where;
  ASSERT_EQ(got.done, want.done) << where;
  ASSERT_EQ(got.next_state.size(), want.next_state.size()) << where;
  ASSERT_EQ(std::memcmp(got.next_state.data(), want.next_state.data(),
                        want.next_state.size() * sizeof(double)),
            0)
      << where << ": next state";
}

class EnvMatchesUncached
    : public ::testing::TestWithParam<std::tuple<RewardType, double>> {};

// The training loop's traffic on the paper's shape (270 validation steps,
// 43 members, omega = 10) over two episodes: per step, eight counterfactual
// Peeks (one-hot weights, whose ensemble error ties the member's exactly,
// and random mixtures), then a Step. Members are the series plus noise of
// rising scale; one is constant.
TEST_P(EnvMatchesUncached, PeekAndStepMatchBitwise) {
  const auto [reward_type, diversity_coef] = GetParam();
  constexpr size_t kSteps = 270;
  constexpr size_t kMembers = 43;
  Rng data_rng(77);
  math::Vec actuals(kSteps);
  for (size_t t = 0; t < kSteps; ++t) {
    actuals[t] = 10.0 + 3.0 * std::sin(0.2 * static_cast<double>(t)) +
                 data_rng.Normal(0.0, 0.5);
  }
  math::Matrix preds(kSteps, kMembers);
  for (size_t t = 0; t < kSteps; ++t) {
    for (size_t i = 0; i + 1 < kMembers; ++i) {
      preds(t, i) = actuals[t] +
                    data_rng.Normal(0.0, 0.1 + 0.05 * static_cast<double>(i));
    }
    preds(t, kMembers - 1) = 10.0;
  }
  EnsembleEnv env(preds, actuals, 10, reward_type, diversity_coef);
  UncachedEnv reference(preds, actuals, 10, reward_type, diversity_coef);

  Rng rng(5);
  auto random_weights = [&]() {
    math::Vec w(kMembers);
    double sum = 0.0;
    for (double& v : w) {
      v = std::pow(rng.Uniform(1e-3, 1.0), 3.0);
      sum += v;
    }
    for (double& v : w) v /= sum;
    return w;
  };
  for (int episode = 0; episode < 2; ++episode) {
    const math::Vec s = env.Reset();
    ASSERT_EQ(s, reference.Reset());
    for (size_t step = 0;; ++step) {
      const std::string where = "episode " + std::to_string(episode) +
                                " step " + std::to_string(step);
      for (size_t c = 0; c < 8; ++c) {
        math::Vec w;
        if (c % 2 == 0) {
          w.assign(kMembers, 0.0);
          w[rng.Index(kMembers)] = 1.0;
        } else {
          w = random_weights();
        }
        ExpectSameResult(env.Peek(w), reference.Peek(w),
                         where + " peek " + std::to_string(c));
      }
      const math::Vec w = random_weights();
      const EnsembleEnv::StepResult got = env.Step(w);
      ExpectSameResult(got, reference.Step(w), where + " step");
      if (got.done) break;
    }
  }
}

// Advance commits Step's transition without the reward: over two episodes
// of random mixtures, for both reward types, its prediction, actual, next
// state and done equal Step's bitwise, and its reward stays 0.
TEST(EnvTest, AdvanceMatchesStepWithoutTheReward) {
  constexpr size_t kSteps = 60;
  constexpr size_t kMembers = 7;
  Rng data_rng(31);
  math::Vec actuals(kSteps);
  math::Matrix preds(kSteps, kMembers);
  for (size_t t = 0; t < kSteps; ++t) {
    actuals[t] = 5.0 + std::cos(0.3 * static_cast<double>(t)) +
                 data_rng.Normal(0.0, 0.2);
    for (size_t i = 0; i < kMembers; ++i) {
      preds(t, i) = actuals[t] + data_rng.Normal(0.0, 0.1 * static_cast<double>(i + 1));
    }
  }
  for (RewardType reward_type :
       {RewardType::kRank, RewardType::kOneMinusNrmse}) {
    EnsembleEnv stepped(preds, actuals, 6, reward_type);
    EnsembleEnv advanced = stepped;
    Rng rng(8);
    for (int episode = 0; episode < 2; ++episode) {
      ASSERT_EQ(stepped.Reset(), advanced.Reset());
      for (size_t step = 0;; ++step) {
        math::Vec w(kMembers);
        double sum = 0.0;
        for (double& v : w) {
          v = rng.Uniform(0.01, 1.0);
          sum += v;
        }
        for (double& v : w) v /= sum;
        EnsembleEnv::StepResult want = stepped.Step(w);
        const EnsembleEnv::StepResult got = advanced.Advance(w);
        EXPECT_EQ(got.reward, 0.0);
        want.reward = 0.0;
        ExpectSameResult(got, want,
                         "reward type " +
                             std::to_string(static_cast<int>(reward_type)) +
                             " episode " + std::to_string(episode) +
                             " step " + std::to_string(step));
        if (got.done) break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RewardsAndDiversity, EnvMatchesUncached,
    ::testing::Combine(::testing::Values(RewardType::kRank,
                                         RewardType::kOneMinusNrmse),
                       ::testing::Values(0.0, 0.1)));

}  // namespace
}  // namespace eadrl::rl
