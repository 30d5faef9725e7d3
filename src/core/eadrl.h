#ifndef EADRL_CORE_EADRL_H_
#define EADRL_CORE_EADRL_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "chk/chk.h"

#include "core/combiner.h"
#include "obs/metrics.h"
#include "rl/ddpg.h"
#include "rl/env.h"
#include "rl/ou_noise.h"
#include "rl/replay_buffer.h"
#include "ts/drift.h"

namespace eadrl::core {

/// Online policy-adaptation modes — the paper's future-work proposal to
/// "investigate the impact of an online update of the policy, for instance
/// in a periodic manner, or in an informed fashion following a
/// drift-detection mechanism".
enum class OnlineUpdateMode {
  kNone,           ///< paper default: policy frozen after offline training.
  kPeriodic,       ///< a few DDPG updates every `online_update_every` steps.
  kDriftInformed,  ///< updates triggered by Page-Hinkley drift detection.
};

/// EA-DRL hyper-parameters (paper Sec. III, "EA-DRL set-up": gamma = 0.9,
/// alpha = 0.01, max.ep = max.iter = 100, omega = 10 for Table II).
struct EadrlConfig {
  size_t omega = 10;                 ///< validation window / state size.
  rl::RewardType reward_type = rl::RewardType::kRank;
  rl::SamplingStrategy sampling = rl::SamplingStrategy::kMedianSplit;
  size_t max_episodes = 100;
  size_t max_iterations = 100;       ///< environment steps per episode.
  size_t replay_capacity = 5000;
  size_t batch_size = 16;
  size_t warmup_transitions = 64;    ///< updates start once buffer has these.
  double gamma = 0.9;
  double actor_lr = 0.005;
  double critic_lr = 0.01;
  double tau = 0.01;
  std::vector<size_t> actor_hidden = {64, 64};
  std::vector<size_t> critic_hidden = {64, 64};
  /// Passed through to the DDPG agent (see rl::DdpgConfig).
  double logit_scale = 1.0;
  double logit_l2 = 0.01;
  double ou_sigma = 1.0;             ///< OU noise on the action logits.
  double ou_sigma_decay = 0.98;      ///< per-episode exploration decay.
  /// Probability of replacing a step's action with a random Dirichlet draw.
  /// Concentrated random actions give the critic coverage of the whole
  /// simplex (including near-corner weightings), which OU noise around the
  /// current policy cannot provide; decays per episode.
  double explore_prob = 0.5;
  double explore_decay = 0.96;
  double dirichlet_alpha = 0.3;
  /// Counterfactual replay: because the environment's transition and reward
  /// functions are known (they are computed from the fixed validation
  /// prediction matrix), every visited state can also be labeled with the
  /// reward of actions that were NOT executed. Each step additionally stores
  /// this many counterfactual transitions (half single-model one-hots, half
  /// random Dirichlet mixtures), which is what lets the critic identify
  /// per-model quality from a short validation segment. 0 disables.
  size_t counterfactual_actions = 8;
  /// Number of independent training runs (different seeds). After each
  /// training episode the greedy policy is evaluated with a full
  /// deterministic rollout on the validation environment, and the
  /// best-scoring actor snapshot across all restarts is the one deployed
  /// online. This is model selection on validation data (the paper tunes
  /// hyper-parameters the same way): it removes the run-to-run variance of
  /// deploying whatever the last episode produced, and restarting is cheap
  /// insurance against a bad DDPG draw.
  size_t restarts = 3;

  // --- Paper future-work extensions (all off by default). -----------------
  /// Diversity-aware reward coefficient (see rl::EnsembleEnv).
  double diversity_coef = 0.0;
  /// Pruning step: train and act on only the `prune_top_n` models with the
  /// lowest validation RMSE (0 = use the whole pool). Pruned models receive
  /// weight zero online.
  size_t prune_top_n = 0;
  /// Online policy adaptation.
  OnlineUpdateMode online_update = OnlineUpdateMode::kNone;
  size_t online_update_every = 25;       ///< steps between periodic updates.
  size_t online_update_iterations = 5;   ///< DDPG updates per trigger.
  size_t online_buffer_capacity = 512;
  bool early_stop = true;            ///< stop when the reward curve plateaus.
  size_t early_stop_patience = 10;
  uint64_t seed = 42;
};

/// The extractable online half of Algorithm 1: everything `Predict` mutates
/// per step, separated from the trained policy (which is immutable online
/// with the paper-default OnlineUpdateMode::kNone). A serving layer keeps one
/// of these per resident tenant session and shares the trained policy across
/// all of them, which is what makes cross-tenant batched actor passes
/// possible (see src/serve/).
struct OnlineState {
  std::deque<double> window;  ///< last omega ensemble outputs (policy units).
  double state_mean = 0.0;    ///< validation-actuals mean (diagnostics).
  double state_std = 1.0;     ///< rl::EnsembleEnv::state_sd() (state floor).
};

/// The state of Algorithm 1 for `state`'s window: rl::StandardizeWindow, the
/// transform the policy trained on, as a pure function of explicit session
/// state. Both EadrlCombiner's in-object online loop and the serving layer's
/// extracted sessions go through here, so their states are bit-identical by
/// construction.
math::Vec OnlineStateVec(const OnlineState& state);

/// Algorithm 1's step after the actor pass, shared by EadrlCombiner::Predict
/// and the serving layer's waves: checks `action` is on the simplex, combines
/// the active members' forecasts, checks the result is finite and rolls
/// `state`'s window with it. Returns the forecast (policy units).
double CombineAndRoll(const math::Vec& action, const math::Vec& reduced_preds,
                      OnlineState* state);

/// Debug-mode sentinel enforcing the per-session serialization contract:
/// EadrlCombiner's online entry points (Predict/Update/Weights, and the
/// Initialize/LoadPolicy lifecycle calls) mutate session state and the
/// agent's inference workspace, so two concurrent calls on ONE combiner are a
/// data race. The combiner is deliberately not internally synchronized — a
/// serving layer stripes sessions across locks instead of paying a mutex on
/// every call — so this guard turns a violated contract into a loud chk
/// failure instead of silent state corruption. With contracts compiled out
/// the cost is one uncontended atomic exchange per call.
class SessionCallGuard {
 public:
  SessionCallGuard(std::atomic<bool>* busy, const char* what) : busy_(busy) {
    const bool was_busy = busy_->exchange(true, std::memory_order_acquire);
    EADRL_CHK(!was_busy, what);
    static_cast<void>(was_busy);
    static_cast<void>(what);
  }
  ~SessionCallGuard() { busy_->store(false, std::memory_order_release); }

  SessionCallGuard(const SessionCallGuard&) = delete;
  SessionCallGuard& operator=(const SessionCallGuard&) = delete;

 private:
  std::atomic<bool>* busy_;
};

/// EA-DRL: ensemble aggregation with deep reinforcement learning.
///
/// `Initialize` phrases the combination task as the MDP of Sec. II-B over a
/// validation prediction matrix and learns the combination policy offline
/// with DDPG plus the median-split replay sampling of Sec. II-D. Online,
/// `Predict` queries the frozen policy for the weight vector given the
/// current window of ensemble outputs and rolls the window forward with the
/// new ensemble output (paper Algorithm 1).
class EadrlCombiner : public WeightedCombiner {
 public:
  explicit EadrlCombiner(EadrlConfig config);

  const std::string& name() const override { return name_; }
  Status Initialize(const math::Matrix& val_preds,
                    const math::Vec& val_actuals) override;
  double Predict(const math::Vec& preds) override;
  void Update(const math::Vec& preds, double actual) override;
  math::Vec Weights() const override;

  /// Average reward per training episode (Fig. 2 learning curves).
  const math::Vec& episode_rewards() const { return episode_rewards_; }

  /// Greedy-policy validation score (negative rollout RMSE) per episode of
  /// the first restart; used to measure convergence speed (Q3).
  const math::Vec& eval_scores() const { return eval_scores_; }

  /// Episode index at which early stopping declared convergence, or
  /// max_episodes if it ran to completion.
  size_t converged_episode() const { return converged_episode_; }

  /// Indices of the pool models the policy acts on (all, unless
  /// prune_top_n is set).
  const std::vector<size_t>& active_models() const { return active_models_; }

  /// Size of the pool the policy was trained on: the length of the member
  /// forecast vector Predict and Update take.
  size_t num_models() const { return num_models_; }

  /// Number of online policy updates performed so far (0 unless an
  /// OnlineUpdateMode is enabled).
  size_t online_updates() const { return online_updates_; }

  const EadrlConfig& config() const { return config_; }

  /// Saves the trained policy (actor weights + online state) so it can be
  /// deployed later without retraining — the offline/online split of the
  /// paper made concrete. Requires a prior Initialize.
  Status SavePolicy(const std::string& path) const;

  /// Loads a policy saved by SavePolicy. The combiner's configured network
  /// sizes must match the saved file. After loading, the combiner is ready
  /// for online Predict/Update without Initialize.
  Status LoadPolicy(const std::string& path);

  /// Trained agent (diagnostics and the serving layer's batched actor
  /// passes; null before Initialize). Its const ActBatch writes only the
  /// caller's buffers, so threads sharing one combiner may call it
  /// concurrently; Act and ActWithNoise use the agent's own workspace and
  /// must not overlap with each other or with the combiner's entry points.
  rl::DdpgAgent* agent() { return agent_.get(); }

  /// Copies the current online session state (window + state statistics) out
  /// of the combiner. A serving layer snapshots this once after training and
  /// clones it into every fresh tenant session; requires Initialize (or
  /// LoadPolicy) to have succeeded.
  OnlineState ExportOnlineState() const;

  /// Restricts a full prediction vector to the active (unpruned) models —
  /// the const half of the predict path, shared with the serving layer.
  math::Vec ReduceToActive(const math::Vec& preds) const;

  /// The state the online stage would act on right now.
  math::Vec DebugCurrentState() const { return OnlineStateVec(online_); }

 private:
  /// Rank reward of `action` over the current online window (used by the
  /// online-update extension), scaled to [0, 1].
  double OnlineRankReward(const math::Vec& action) const;

  /// One online step of the update extension (online_update != kNone).
  void MaybeOnlineUpdate(const math::Vec& reduced_preds, double actual);

  std::string name_;
  EadrlConfig config_;
  std::unique_ptr<rl::DdpgAgent> agent_;
  math::Vec episode_rewards_;
  math::Vec eval_scores_;
  size_t converged_episode_ = 0;

  OnlineState online_;  // Algorithm 1's per-step state.
  size_t num_models_ = 0;
  std::vector<size_t> active_models_;  // subset the policy acts on.
  bool initialized_ = false;

  // Online-update extension state.
  std::unique_ptr<rl::ReplayBuffer> online_buffer_;
  rl::Minibatch online_minibatch_;  // reused by every online update.
  std::deque<math::Vec> online_preds_;  // reduced, last omega steps.
  std::deque<double> online_actuals_;
  math::Vec last_state_;
  math::Vec last_action_;  // reduced.
  bool has_last_action_ = false;
  size_t online_steps_ = 0;
  size_t online_updates_ = 0;
  ts::PageHinkley online_detector_{0.005, 3.0};
  std::unique_ptr<Rng> online_rng_;

  /// Per-session serialization sentinel (see SessionCallGuard). Mutable so
  /// const entry points (Weights) participate in the same contract.
  mutable std::atomic<bool> busy_{false};

  // Observability (cached from the default registry; see DESIGN.md
  // "Observability" for the metric naming scheme).
  size_t predict_count_ = 0;
  obs::Histogram* predict_latency_hist_;
  obs::Counter* predict_counter_;
  obs::Counter* episode_counter_;
  obs::Counter* online_update_counter_;
};

}  // namespace eadrl::core

#endif  // EADRL_CORE_EADRL_H_
