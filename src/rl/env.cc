#include "rl/env.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "math/stats.h"

namespace eadrl::rl {

EnsembleEnv::EnsembleEnv(math::Matrix predictions, math::Vec actuals,
                         size_t omega, RewardType reward_type,
                         double diversity_coef)
    : predictions_(std::move(predictions)),
      actuals_(std::move(actuals)),
      omega_(omega),
      reward_type_(reward_type),
      diversity_coef_(diversity_coef) {
  EADRL_CHECK_EQ(predictions_.rows(), actuals_.size());
  EADRL_CHECK_GT(omega_, 0u);
  EADRL_CHECK_GT(predictions_.cols(), 0u);
  EADRL_CHECK_GT(predictions_.rows(), omega_);
  state_sd_ = math::Stddev(actuals_);
  if (state_sd_ <= 1e-12) state_sd_ = 1.0;
  if (reward_type_ == RewardType::kRank) {
    const size_t m = predictions_.cols();
    member_rmse_ = math::Matrix(predictions_.rows(), m);
    for (size_t t = omega_; t < predictions_.rows(); ++t) {
      const size_t begin = t + 1 - omega_;
      for (size_t i = 0; i < m; ++i) {
        double sse = 0.0;
        for (size_t j = begin; j <= t; ++j) {
          double d = predictions_(j, i) - actuals_[j];
          sse += d * d;
        }
        member_rmse_(t, i) = std::sqrt(sse / static_cast<double>(omega_));
      }
    }
  }
}

void StandardizeWindow(double state_sd, math::Vec* window) {
  // States are standardized by the *window's own* statistics so the policy
  // sees the shape of the recent ensemble trajectory independent of the
  // series' current level — essential for trending or random-walk series
  // whose online level leaves the validation range. The window stddev is
  // floored by a fraction of the validation stddev so flat windows do not
  // blow noise up, and values are clipped to +-4.
  math::Vec& s = *window;
  double mean = 0.0;
  for (double v : s) mean += v;
  mean /= static_cast<double>(s.size());
  double var = 0.0;
  for (double v : s) var += (v - mean) * (v - mean);
  var /= static_cast<double>(s.size());
  double sd = std::max(std::sqrt(var), 0.1 * state_sd);
  if (sd <= 1e-12) sd = 1.0;
  for (double& v : s) v = std::clamp((v - mean) / sd, -4.0, 4.0);
}

math::Vec EnsembleEnv::Reset() {
  const size_t m = predictions_.cols();
  window_.resize(omega_);
  // Uniform-weight ensemble outputs seed the window (no action has been
  // taken yet, so the internal combination policy starts uniform).
  for (size_t t = 0; t < omega_; ++t) {
    double s = 0.0;
    for (size_t i = 0; i < m; ++i) s += predictions_(t, i);
    window_[t] = s / static_cast<double>(m);
  }
  t_ = omega_;
  math::Vec state = window_;
  StandardizeWindow(state_sd_, &state);
  return state;
}

double EnsembleEnv::RewardAt(size_t t, const math::Vec& weights) const {
  EADRL_CHECK_GE(t, omega_);
  EADRL_CHECK_LT(t, predictions_.rows());
  EADRL_CHECK_EQ(weights.size(), predictions_.cols());
  const size_t m = predictions_.cols();
  const size_t begin = t + 1 - omega_;

  // Ensemble error over the window, applying the current weights across it
  // ("the computed ensemble using the corresponding action on X^omega").
  double ens_sse = 0.0;
  for (size_t j = begin; j <= t; ++j) {
    double pred = 0.0;
    for (size_t i = 0; i < m; ++i) pred += weights[i] * predictions_(j, i);
    double d = pred - actuals_[j];
    ens_sse += d * d;
  }
  double ens_rmse = std::sqrt(ens_sse / static_cast<double>(omega_));

  // Diversity bonus (paper future work): weighted dispersion of the base
  // predictions around the ensemble output, normalized by the validation
  // stddev so the coefficient is scale-free.
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
    diversity_bonus = diversity_coef_ * dispersion / state_sd_;
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

  // Rank reward (Eq. 3): rank the ensemble among the m base models by RMSE
  // over the same window; rank 1 = best, reward = m + 1 - rank.
  size_t rank = 1;
  const double* member_rmse = member_rmse_.RowPtr(t);
  for (size_t i = 0; i < m; ++i) {
    if (member_rmse[i] < ens_rmse) ++rank;
  }
  return static_cast<double>(m + 1 - rank) + diversity_bonus;
}

EnsembleEnv::StepResult EnsembleEnv::Transition(
    const math::Vec& weights) const {
  EADRL_CHECK_LT(t_, predictions_.rows());
  EADRL_CHECK_EQ(weights.size(), predictions_.cols());

  StepResult result;
  double pred = 0.0;
  for (size_t i = 0; i < predictions_.cols(); ++i) {
    pred += weights[i] * predictions_(t_, i);
  }
  result.ensemble_prediction = pred;
  result.actual = actuals_[t_];
  result.done = (t_ + 1 >= predictions_.rows());
  // The slid window: the last omega - 1 outputs, then this step's.
  result.next_state.resize(omega_);
  std::copy(window_.begin() + 1, window_.end(), result.next_state.begin());
  result.next_state.back() = pred;
  StandardizeWindow(state_sd_, &result.next_state);
  return result;
}

EnsembleEnv::StepResult EnsembleEnv::Peek(const math::Vec& weights) const {
  StepResult result = Transition(weights);
  result.reward = RewardAt(t_, weights);
  return result;
}

void EnsembleEnv::Commit(const StepResult& result) {
  // The ensemble output at the current step enters the window.
  std::copy(window_.begin() + 1, window_.end(), window_.begin());
  window_.back() = result.ensemble_prediction;
  ++t_;
}

EnsembleEnv::StepResult EnsembleEnv::Step(const math::Vec& weights) {
  StepResult result = Peek(weights);
  Commit(result);
  return result;
}

EnsembleEnv::StepResult EnsembleEnv::Advance(const math::Vec& weights) {
  StepResult result = Transition(weights);
  Commit(result);
  return result;
}

}  // namespace eadrl::rl
