#ifndef EADRL_RL_ENV_H_
#define EADRL_RL_ENV_H_

#include "common/status.h"
#include "math/matrix.h"
#include "math/vec.h"

namespace eadrl::rl {

/// Reward definitions studied in the paper (Sec. II-B and Fig. 2).
enum class RewardType {
  /// Rank-based reward (Eq. 3): r = m + 1 - rank(ensemble) where all m base
  /// models plus the ensemble are ranked by forecasting error over the
  /// current validation window (lower error = better rank).
  kRank,
  /// Ablation reward: 1 - NRMSE of the ensemble over the window; shown in
  /// Fig. 2a to prevent convergence because its magnitude tracks the
  /// time-varying scale of the series.
  kOneMinusNrmse,
};

/// Algorithm 1's state transform (DESIGN.md §4.7), in place: standardizes a
/// window of ensemble outputs by the *window's own* mean and stddev, with
/// the stddev floored at 0.1 x `state_sd`, and clips to +-4. `state_sd` is
/// the validation stddev with a constant segment's replaced by 1.0, as
/// EnsembleEnv::state_sd() holds it. Training (EnsembleEnv) and the online
/// stage (core::OnlineStateVec) both go through here, so the deployed policy
/// acts on states scaled exactly as the ones it trained on.
void StandardizeWindow(double state_sd, math::Vec* window);

/// The ensemble-aggregation MDP of paper Sec. II-B, built on precomputed
/// base-model predictions over a validation segment.
///
/// * State s_t: the window of the last omega *ensemble outputs* (not raw
///   series values), so the state reflects both the series dynamics and the
///   effect of past actions.
/// * Action a_t: the m-dimensional weight vector applied at time t+1.
/// * Transition: deterministic — slide the window and append the new
///   ensemble output.
/// * Reward: see RewardType.
///
/// What does not depend on the weights is computed once, at construction:
/// the validation stddev (1.0 for a constant segment) and, for the rank
/// reward, every member's window RMSE at every step. Each value is the one
/// the per-call computation gave.
class EnsembleEnv {
 public:
  /// `predictions` is T x m (one row per validation time step, one column
  /// per base model); `actuals` has length T. `omega` is the window size.
  /// `diversity_coef` implements the paper's future-work suggestion of a
  /// diversity-aware reward: the normalized weighted dispersion of the base
  /// predictions around the ensemble output over the window, scaled by the
  /// coefficient, is added to the base reward (0 disables).
  EnsembleEnv(math::Matrix predictions, math::Vec actuals, size_t omega,
              RewardType reward_type, double diversity_coef = 0.0);

  size_t state_dim() const { return omega_; }
  size_t action_dim() const { return predictions_.cols(); }
  size_t horizon() const { return predictions_.rows() - omega_; }
  /// The validation stddev the state transform and the diversity bonus
  /// scale by: math::Stddev of the actuals, or 1.0 when that is <= 1e-12.
  double state_sd() const { return state_sd_; }

  /// Starts a new episode. The initial window holds the uniform-weight
  /// ensemble outputs for the first omega steps. Returns the initial state.
  math::Vec Reset();

  /// Applies the weight vector; returns (reward, next_state, done) plus the
  /// ensemble prediction and realized value at the step (for RMSE-based
  /// policy evaluation).
  struct StepResult {
    double reward = 0.0;
    math::Vec next_state;
    bool done = false;
    double ensemble_prediction = 0.0;
    double actual = 0.0;
  };
  StepResult Step(const math::Vec& weights);

  /// Step without the reward: commits the same transition and returns the
  /// same next_state, done, ensemble_prediction and actual, bit for bit,
  /// with `reward` left at 0. For rollouts that read only the forecasts.
  StepResult Advance(const math::Vec& weights);

  /// Computes the (reward, next_state, done) a weight vector would produce
  /// at the current position WITHOUT advancing the environment. The
  /// transition function is known and deterministic, so peeked transitions
  /// are valid off-policy training data (counterfactual replay).
  StepResult Peek(const math::Vec& weights) const;

  /// Computes the reward a weight vector would earn at position t (exposed
  /// for tests).
  double RewardAt(size_t t, const math::Vec& weights) const;

 private:
  math::Matrix predictions_;
  math::Vec actuals_;
  size_t omega_;
  RewardType reward_type_;
  double diversity_coef_;
  double state_sd_;
  // Rank reward only: row t holds each member's RMSE over the window ending
  // at t (rows below omega_ are unused).
  math::Matrix member_rmse_;

  size_t t_ = 0;  // current prediction index (>= omega_).
  math::Vec window_;  // last omega ensemble outputs, oldest first.

  /// Peek without the reward.
  StepResult Transition(const math::Vec& weights) const;

  /// Moves to the next step with `result`'s ensemble output in the window.
  void Commit(const StepResult& result);
};

}  // namespace eadrl::rl

#endif  // EADRL_RL_ENV_H_
