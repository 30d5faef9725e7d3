#include "core/eadrl.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "chk/chk.h"
#include "common/check.h"
#include "common/logging.h"
#include "math/stats.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "par/parallel.h"

namespace eadrl::core {

EadrlCombiner::EadrlCombiner(EadrlConfig config)
    : name_("EA-DRL"),
      config_(std::move(config)),
      predict_latency_hist_(obs::MetricRegistry::Default().GetHistogram(
          "eadrl_predict_seconds")),
      predict_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_predict_total")),
      episode_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_episodes_total")),
      online_update_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_online_updates_total")) {
  EADRL_CHECK_GT(config_.omega, 0u);
  EADRL_CHECK_GT(config_.max_episodes, 0u);
}

math::Vec OnlineStateVec(const OnlineState& state) {
  EADRL_CHECK(!state.window.empty());
  math::Vec s(state.window.begin(), state.window.end());
  rl::StandardizeWindow(state.state_std, &s);
  return s;
}

double CombineAndRoll(const math::Vec& action, const math::Vec& reduced_preds,
                      OnlineState* state) {
  // The paper's normalization guarantee: every served combination is a
  // convex mixture of the member forecasts.
  EADRL_CHK_SIMPLEX(action, 1e-6, "EA-DRL online action");
  const double pred = Combine(action, reduced_preds);
  EADRL_CHK_FINITE_VALUE(pred, "EA-DRL online ensemble output");
  // Algorithm 1: the state window rolls forward with the ensemble output.
  state->window.push_back(pred);
  state->window.pop_front();
  return pred;
}

Status EadrlCombiner::Initialize(const math::Matrix& val_preds,
                                 const math::Vec& val_actuals) {
  SessionCallGuard guard(&busy_, "concurrent EadrlCombiner::Initialize");
  if (val_preds.rows() != val_actuals.size()) {
    return Status::InvalidArgument("EA-DRL: predictions/actuals mismatch");
  }
  if (val_preds.rows() <= config_.omega + 2) {
    return Status::InvalidArgument(
        "EA-DRL: validation segment shorter than omega + 2");
  }
  num_models_ = val_preds.cols();

  // Optional pruning step (paper future work): keep only the top models by
  // validation RMSE; the policy then weights this subset.
  active_models_.clear();
  if (config_.prune_top_n > 0 && config_.prune_top_n < num_models_) {
    std::vector<std::pair<double, size_t>> scored;
    for (size_t i = 0; i < num_models_; ++i) {
      double sse = 0.0;
      for (size_t t = 0; t < val_actuals.size(); ++t) {
        double d = val_preds(t, i) - val_actuals[t];
        sse += d * d;
      }
      scored.push_back({sse, i});
    }
    std::sort(scored.begin(), scored.end());
    for (size_t k = 0; k < config_.prune_top_n; ++k) {
      active_models_.push_back(scored[k].second);
    }
    std::sort(active_models_.begin(), active_models_.end());
  } else {
    active_models_.resize(num_models_);
    for (size_t i = 0; i < num_models_; ++i) active_models_[i] = i;
  }
  const size_t m_active = active_models_.size();
  math::Matrix reduced(val_preds.rows(), m_active);
  for (size_t t = 0; t < val_preds.rows(); ++t) {
    for (size_t k = 0; k < m_active; ++k) {
      reduced(t, k) = val_preds(t, active_models_[k]);
    }
  }

  const rl::EnsembleEnv base_env(reduced, val_actuals, config_.omega,
                                 config_.reward_type, config_.diversity_coef);

  rl::DdpgConfig ddpg;
  ddpg.state_dim = base_env.state_dim();
  ddpg.action_dim = base_env.action_dim();
  ddpg.actor_hidden = config_.actor_hidden;
  ddpg.critic_hidden = config_.critic_hidden;
  ddpg.actor_lr = config_.actor_lr;
  ddpg.critic_lr = config_.critic_lr;
  ddpg.gamma = config_.gamma;
  ddpg.tau = config_.tau;
  ddpg.batch_size = config_.batch_size;
  ddpg.logit_scale = config_.logit_scale;
  ddpg.logit_l2 = config_.logit_l2;
  const size_t restarts = std::max<size_t>(1, config_.restarts);

  // Root of the offline-training trace: everything below — restart tasks on
  // pool workers included — parents back to this span.
  obs::Span train_span("train");
  train_span.SetAttr("restarts", restarts);
  train_span.SetAttr("models", m_active);

  // Every restart is an independent training run: restart-derived seeds, its
  // own agent, replay buffer, noise process and copy of base_env (Reset()
  // fully reinitializes an EnsembleEnv, so a copy behaves exactly like the
  // serial code's reuse of one env, and it keeps the precomputed window
  // statistics). Restarts therefore run concurrently on the default pool,
  // and every cross-restart decision — deployed checkpoint, reported
  // curves — is made in the ordered scan after the join, which reproduces
  // the serial loop's selection (first restart achieving the maximum wins,
  // as with the serial strict-> update).
  struct RestartOutcome {
    std::unique_ptr<rl::DdpgAgent> agent;
    math::Vec episode_rewards;
    math::Vec eval_scores;
    size_t converged_episode = 0;
    double best_eval = -1e300;
    std::vector<math::Matrix> best_actor;
  };

  auto run_restart = [&](size_t restart) {
    obs::Span restart_span("restart");
    restart_span.SetAttr("restart", restart);
    RestartOutcome out;
    out.converged_episode = config_.max_episodes;

    rl::EnsembleEnv env = base_env;
    rl::DdpgConfig restart_ddpg = ddpg;
    restart_ddpg.seed = config_.seed + restart * 101;
    out.agent = std::make_unique<rl::DdpgAgent>(restart_ddpg);
    rl::DdpgAgent* agent = out.agent.get();

    rl::ReplayBuffer buffer(config_.replay_capacity);
    rl::Minibatch minibatch;
    rl::OuNoise noise(env.action_dim(), /*theta=*/0.15, config_.ou_sigma);
    Rng rng(config_.seed + 7 + restart * 997);

    // Random simplex draw for off-policy exploration.
    auto sample_dirichlet = [&]() {
      std::gamma_distribution<double> gamma(config_.dirichlet_alpha, 1.0);
      math::Vec w(m_active);
      double sum = 0.0;
      for (double& v : w) {
        v = std::max(gamma(rng.engine()), 1e-12);
        sum += v;
      }
      for (double& v : w) v /= sum;
      return w;
    };

    // Rank rewards span [0, m]; scale them into [0, 1] inside the learner so
    // critic targets and policy gradients are well-conditioned for any pool
    // size. Episode curves report the raw reward (Fig. 2 units).
    auto learner_reward = [&](double reward) {
      return config_.reward_type == rl::RewardType::kRank
                 ? reward / static_cast<double>(m_active)
                 : reward;
    };

    double explore_prob = config_.explore_prob;

    for (size_t episode = 0; episode < config_.max_episodes; ++episode) {
      obs::Span episode_span("episode");
      if (episode_span.armed()) {
        episode_span.SetAttr("restart", restart);
        episode_span.SetAttr("episode", episode);
      }
      math::Vec state = env.Reset();
      noise.Reset();
      double episode_reward = 0.0;
      size_t steps = 0;

      for (size_t iter = 0; iter < config_.max_iterations; ++iter) {
        math::Vec action = rng.Bernoulli(explore_prob)
                               ? sample_dirichlet()
                               : agent->ActWithNoise(state, noise.Sample(rng));

        // Counterfactual replay: label this state with rewards of actions
        // that were not executed (the simulator makes them exact).
        const size_t m = m_active;
        for (size_t c = 0; c < config_.counterfactual_actions; ++c) {
          math::Vec cf_action;
          if (c % 2 == 0) {
            cf_action.assign(m, 0.0);
            cf_action[rng.Index(m)] = 1.0;
          } else {
            cf_action = sample_dirichlet();
          }
          rl::EnsembleEnv::StepResult cf = env.Peek(cf_action);
          buffer.Add(state, cf_action, learner_reward(cf.reward),
                     cf.next_state, cf.done);
        }

        rl::EnsembleEnv::StepResult sr = env.Step(action);
        episode_reward += sr.reward;
        ++steps;
        buffer.Add(state, action, learner_reward(sr.reward), sr.next_state,
                   sr.done);

        if (buffer.size() >= config_.warmup_transitions) {
          buffer.Sample(config_.batch_size, config_.sampling, rng, &minibatch);
          agent->Update(minibatch);
        }

        state = sr.next_state;
        if (sr.done) break;
      }
      const double mean_reward =
          episode_reward / static_cast<double>(steps);
      out.episode_rewards.push_back(mean_reward);
      const double episode_sigma = noise.sigma();
      const double episode_explore = explore_prob;
      noise.set_sigma(noise.sigma() * config_.ou_sigma_decay);
      explore_prob *= config_.explore_decay;

      // Deterministic evaluation rollout for best-checkpoint selection. The
      // selection metric is the rollout's ensemble RMSE on validation — the
      // quantity the deployed policy is judged by — so it steps without the
      // reward. Its first Act packs the actor and the rest reuse the pack.
      double eval_score = 0.0;
      {
        obs::Span eval_span("eval_rollout");
        math::Vec eval_state = env.Reset();
        double eval_sse = 0.0;
        size_t eval_steps = 0;
        for (size_t iter = 0; iter < config_.max_iterations; ++iter) {
          rl::EnsembleEnv::StepResult sr =
              env.Advance(agent->Act(eval_state));
          double err = sr.ensemble_prediction - sr.actual;
          eval_sse += err * err;
          ++eval_steps;
          eval_state = sr.next_state;
          if (sr.done) break;
        }
        eval_score = -std::sqrt(eval_sse / static_cast<double>(eval_steps));
        out.eval_scores.push_back(eval_score);
        if (eval_score > out.best_eval) {
          obs::Span checkpoint_span("checkpoint");
          out.best_eval = eval_score;
          out.best_actor = agent->ActorWeights();
          if (checkpoint_span.armed()) {
            checkpoint_span.SetAttr("restart", restart);
            checkpoint_span.SetAttr("episode", episode);
            checkpoint_span.SetAttr("eval_score", eval_score);
          }
        }
      }

      episode_counter_->Inc();
      if (episode_span.armed()) {
        episode_span.SetAttr("reward", mean_reward);
        episode_span.SetAttr("ou_sigma", episode_sigma);
        episode_span.SetAttr("explore_prob", episode_explore);
        episode_span.SetAttr("replay_size", buffer.size());
        episode_span.SetAttr("critic_loss",
                             agent->last_update_stats().critic_loss);
        episode_span.SetAttr("eval_score", eval_score);
      }

      // Plateau detection: compare the mean reward of the last `patience`
      // episodes with the preceding block (first restart only — it owns the
      // reported curve).
      if (restart == 0 && config_.early_stop &&
          out.episode_rewards.size() >= 2 * config_.early_stop_patience) {
        size_t p = config_.early_stop_patience;
        size_t n = out.episode_rewards.size();
        double recent = 0.0, previous = 0.0;
        for (size_t i = n - p; i < n; ++i) recent += out.episode_rewards[i];
        for (size_t i = n - 2 * p; i < n - p; ++i) {
          previous += out.episode_rewards[i];
        }
        recent /= static_cast<double>(p);
        previous /= static_cast<double>(p);
        double scale = std::max(1.0, std::fabs(recent));
        if (std::fabs(recent - previous) < 0.01 * scale) {
          out.converged_episode = episode + 1;
          break;
        }
      }
    }
    return out;
  };

  // Memory: a restart's heavy state (replay buffer, env copy) is allocated
  // when its task *runs* and freed when it finishes, so the peak is
  // O(min(restarts, threads) x replay_capacity) transitions — queued tasks
  // hold nothing, and under RunSuite the same pool bounds datasets x
  // restarts in flight by the worker count. Only the per-restart agent
  // (network weights, small) survives in `outcomes` until the post-join
  // scan. Lower --threads / EADRL_THREADS if threads x replay_capacity is
  // too large for the machine.
  std::vector<RestartOutcome> outcomes(restarts);
  par::ParallelFor(0, restarts, [&](size_t restart) {
    outcomes[restart] = run_restart(restart);
  });

  // Ordered cross-restart selection (identical to the serial scan): the
  // reported learning curve and convergence episode come from the first
  // restart; later restarts only compete for the deployed checkpoint.
  episode_rewards_ = std::move(outcomes[0].episode_rewards);
  eval_scores_ = std::move(outcomes[0].eval_scores);
  converged_episode_ = outcomes[0].converged_episode;
  double best_eval = -1e300;
  std::vector<math::Matrix> best_actor;
  for (size_t restart = 0; restart < restarts; ++restart) {
    if (outcomes[restart].best_eval > best_eval &&
        !outcomes[restart].best_actor.empty()) {
      best_eval = outcomes[restart].best_eval;
      best_actor = std::move(outcomes[restart].best_actor);
    }
  }
  agent_ = std::move(outcomes.back().agent);

  if (converged_episode_ == config_.max_episodes &&
      episode_rewards_.size() < config_.max_episodes) {
    converged_episode_ = episode_rewards_.size();
  }
  // The deployed actor leaves packed either way (rl::DdpgAgent::PackActor).
  // Every checkpoint is missing only when no rollout scored above -1e300
  // (each RMSE non-finite); the last restart's final actor is then deployed.
  if (!best_actor.empty()) {
    agent_->SetActorWeights(best_actor);
  } else {
    agent_->PackActor();
  }
  if (train_span.armed()) {
    train_span.SetAttr("episodes", episode_rewards_.size());
    train_span.SetAttr("converged_episode", converged_episode_);
    train_span.SetAttr("best_eval", best_eval);
  }

  // Online state initialization (Algorithm 1, line 1): seed the window with
  // the policy-weighted ensemble outputs over the tail of the validation
  // segment.
  online_.state_mean = math::Mean(val_actuals);
  online_.state_std = base_env.state_sd();

  online_.window.clear();
  // Warm-up with uniform weights for the first omega tail points (matching
  // EnsembleEnv::Reset), then we are ready to query the policy online.
  const size_t tail_begin = reduced.rows() - config_.omega;
  for (size_t t = tail_begin; t < reduced.rows(); ++t) {
    double s = 0.0;
    for (size_t k = 0; k < m_active; ++k) s += reduced(t, k);
    online_.window.push_back(s / static_cast<double>(m_active));
  }

  // Online-update extension state.
  online_buffer_ =
      std::make_unique<rl::ReplayBuffer>(config_.online_buffer_capacity);
  online_preds_.clear();
  online_actuals_.clear();
  has_last_action_ = false;
  online_steps_ = 0;
  online_updates_ = 0;
  online_detector_.Reset();
  online_rng_ = std::make_unique<Rng>(config_.seed + 31337);

  initialized_ = true;
  return Status::Ok();
}

OnlineState EadrlCombiner::ExportOnlineState() const {
  EADRL_CHECK(initialized_);
  return online_;
}

math::Vec EadrlCombiner::ReduceToActive(const math::Vec& preds) const {
  if (active_models_.size() == preds.size()) return preds;
  math::Vec reduced(active_models_.size());
  for (size_t k = 0; k < active_models_.size(); ++k) {
    reduced[k] = preds[active_models_[k]];
  }
  return reduced;
}

math::Vec EadrlCombiner::Weights() const {
  SessionCallGuard guard(&busy_, "concurrent EadrlCombiner::Weights");
  EADRL_CHECK(initialized_);
  math::Vec reduced = agent_->Act(OnlineStateVec(online_));
  if (active_models_.size() == num_models_) return reduced;
  // Expand pruned weights back to the full pool (zeros elsewhere).
  math::Vec full(num_models_, 0.0);
  for (size_t k = 0; k < active_models_.size(); ++k) {
    full[active_models_[k]] = reduced[k];
  }
  return full;
}

double EadrlCombiner::Predict(const math::Vec& preds) {
  // Per-session serialization contract: a combiner is one tenant's session
  // state plus a non-thread-safe inference workspace. Concurrent Predict /
  // Update / Weights calls on the SAME combiner are a data race (the guard
  // fails loudly under chk); calls on DIFFERENT combiners are free of shared
  // mutable state and may run fully concurrently — the invariant the serving
  // layer's striped session locks enforce (tests/serve_race_test.cc proves
  // cross-session concurrency TSan-clean).
  SessionCallGuard guard(&busy_, "concurrent EadrlCombiner::Predict");
  EADRL_CHECK(initialized_);
  EADRL_CHECK_EQ(preds.size(), num_models_);
  EADRL_CHK_FINITE(preds, "EadrlCombiner::Predict member predictions");
  obs::Span span("predict");
  obs::ScopedTimer timer(predict_latency_hist_);
  last_state_ = OnlineStateVec(online_);
  last_action_ = agent_->Act(last_state_);
  has_last_action_ = true;
  const double pred =
      CombineAndRoll(last_action_, ReduceToActive(preds), &online_);

  ++predict_count_;
  predict_counter_->Inc();
  const double latency = timer.Stop();
  if (span.armed()) {
    // Weight-vector concentration diagnostics: entropy near log(m) means a
    // near-uniform mixture, near zero means single-model selection.
    double entropy = 0.0;
    double max_weight = 0.0;
    for (double w : last_action_) {
      if (w > 0.0) entropy -= w * std::log(w);
      max_weight = std::max(max_weight, w);
    }
    span.SetAttr("step", predict_count_);
    span.SetAttr("latency_seconds", latency);
    span.SetAttr("prediction", pred);
    span.SetAttr("weight_entropy", entropy);
    span.SetAttr("max_weight", max_weight);
    span.SetAttr("online_updates", online_updates_);
    span.SetAttr("drift_cum", online_detector_.cumulative());
  }
  return pred;
}

double EadrlCombiner::OnlineRankReward(const math::Vec& action) const {
  const size_t m = active_models_.size();
  const size_t w = online_preds_.size();
  EADRL_CHECK_GT(w, 0u);
  double ens_sse = 0.0;
  for (size_t j = 0; j < w; ++j) {
    double d = Combine(action, online_preds_[j]) - online_actuals_[j];
    ens_sse += d * d;
  }
  double ens_rmse = std::sqrt(ens_sse / static_cast<double>(w));
  size_t rank = 1;
  for (size_t i = 0; i < m; ++i) {
    double sse = 0.0;
    for (size_t j = 0; j < w; ++j) {
      double d = online_preds_[j][i] - online_actuals_[j];
      sse += d * d;
    }
    if (std::sqrt(sse / static_cast<double>(w)) < ens_rmse) ++rank;
  }
  return static_cast<double>(m + 1 - rank) / static_cast<double>(m);
}

void EadrlCombiner::MaybeOnlineUpdate(const math::Vec& reduced_preds,
                                      double actual) {
  online_preds_.push_back(reduced_preds);
  online_actuals_.push_back(actual);
  if (online_preds_.size() > config_.omega) {
    online_preds_.pop_front();
    online_actuals_.pop_front();
  }
  ++online_steps_;

  if (has_last_action_ && online_preds_.size() == config_.omega) {
    online_buffer_->Add(last_state_, last_action_,
                        OnlineRankReward(last_action_),
                        OnlineStateVec(online_), /*terminal=*/false);
  }

  bool trigger = false;
  if (config_.online_update == OnlineUpdateMode::kPeriodic) {
    trigger = (online_steps_ % config_.online_update_every == 0);
  } else {
    double err = std::fabs(Combine(last_action_, reduced_preds) - actual);
    double sd = online_.state_std > 0 ? online_.state_std : 1.0;
    // A firing detector resets itself, so count its run before updating.
    const size_t observations = online_detector_.num_observations() + 1;
    trigger = has_last_action_ && online_detector_.Update(err / sd);
    if (trigger) {
      obs::Span drift_span("drift");
      if (drift_span.armed()) {
        drift_span.SetAttr("step", online_steps_);
        drift_span.SetAttr("error", err / sd);
        drift_span.SetAttr("observations", observations);
      }
    }
  }
  if (trigger && online_buffer_->size() >= config_.batch_size) {
    obs::Span span("online_update");
    if (span.armed()) {
      span.SetAttr("step", online_steps_);
      span.SetAttr("iterations", config_.online_update_iterations);
    }
    for (size_t i = 0; i < config_.online_update_iterations; ++i) {
      online_buffer_->Sample(config_.batch_size, config_.sampling,
                             *online_rng_, &online_minibatch_);
      agent_->Update(online_minibatch_);
      ++online_updates_;
      online_update_counter_->Inc();
    }
    if (span.armed()) {
      span.SetAttr("total_updates", online_updates_);
      span.SetAttr("mode",
                   config_.online_update == OnlineUpdateMode::kPeriodic
                       ? "periodic"
                       : "drift");
      span.SetAttr("critic_loss", agent_->last_update_stats().critic_loss);
    }
  }
}

Status EadrlCombiner::SavePolicy(const std::string& path) const {
  SessionCallGuard guard(&busy_, "concurrent EadrlCombiner::SavePolicy");
  if (!initialized_) {
    return Status::FailedPrecondition("SavePolicy: not initialized");
  }
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("SavePolicy: cannot open " + path);
  }
  out << "eadrl-policy v1\n";
  out << config_.omega << " " << num_models_ << "\n";
  out << active_models_.size();
  for (size_t idx : active_models_) out << " " << idx;
  out << "\n";
  out << std::setprecision(17) << online_.state_mean << " "
      << online_.state_std << "\n";
  for (size_t i = 0; i < online_.window.size(); ++i) {
    if (i > 0) out << " ";
    out << online_.window[i];
  }
  out << "\n";
  EADRL_RETURN_IF_ERROR(nn::WriteMatrices(out, agent_->ActorWeights()));
  if (!out) return Status::Internal("SavePolicy: write failed");
  return Status::Ok();
}

Status EadrlCombiner::LoadPolicy(const std::string& path) {
  SessionCallGuard guard(&busy_, "concurrent EadrlCombiner::LoadPolicy");
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("LoadPolicy: cannot open " + path);
  }
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "eadrl-policy" || version != "v1") {
    return Status::InvalidArgument("LoadPolicy: bad header");
  }
  size_t omega = 0, m = 0;
  if (!(in >> omega >> m) || omega == 0 || m == 0) {
    return Status::InvalidArgument("LoadPolicy: bad dimensions");
  }
  if (omega != config_.omega) {
    return Status::FailedPrecondition(
        "LoadPolicy: saved omega differs from the configured one");
  }
  size_t active_count = 0;
  if (!(in >> active_count) || active_count == 0 || active_count > m) {
    return Status::InvalidArgument("LoadPolicy: bad active-model count");
  }
  std::vector<size_t> active(active_count);
  for (size_t& idx : active) {
    if (!(in >> idx) || idx >= m) {
      return Status::InvalidArgument("LoadPolicy: bad active-model index");
    }
  }
  double mean = 0.0, sd = 1.0;
  if (!(in >> mean >> sd)) {
    return Status::InvalidArgument("LoadPolicy: bad state statistics");
  }
  std::deque<double> window;
  for (size_t i = 0; i < omega; ++i) {
    double v = 0.0;
    if (!(in >> v)) {
      return Status::InvalidArgument("LoadPolicy: truncated window");
    }
    window.push_back(v);
  }
  StatusOr<std::vector<math::Matrix>> weights = nn::ReadMatrices(in);
  EADRL_RETURN_IF_ERROR(weights.status());

  rl::DdpgConfig ddpg;
  ddpg.state_dim = omega;
  ddpg.action_dim = active_count;
  ddpg.actor_hidden = config_.actor_hidden;
  ddpg.critic_hidden = config_.critic_hidden;
  ddpg.logit_scale = config_.logit_scale;
  ddpg.logit_l2 = config_.logit_l2;
  ddpg.seed = config_.seed;
  auto agent = std::make_unique<rl::DdpgAgent>(ddpg);
  std::vector<math::Matrix> current = agent->ActorWeights();
  if (current.size() != weights->size()) {
    return Status::FailedPrecondition(
        "LoadPolicy: actor architecture mismatch");
  }
  for (size_t i = 0; i < current.size(); ++i) {
    if (current[i].rows() != (*weights)[i].rows() ||
        current[i].cols() != (*weights)[i].cols()) {
      return Status::FailedPrecondition(
          "LoadPolicy: actor layer shape mismatch");
    }
  }
  agent->SetActorWeights(*weights);

  agent_ = std::move(agent);
  num_models_ = m;
  active_models_ = std::move(active);
  online_.state_mean = mean;
  online_.state_std = sd;
  online_.window = std::move(window);
  episode_rewards_.clear();
  converged_episode_ = 0;
  online_buffer_ =
      std::make_unique<rl::ReplayBuffer>(config_.online_buffer_capacity);
  online_preds_.clear();
  online_actuals_.clear();
  has_last_action_ = false;
  online_steps_ = 0;
  online_updates_ = 0;
  online_detector_.Reset();
  online_rng_ = std::make_unique<Rng>(config_.seed + 31337);
  initialized_ = true;
  return Status::Ok();
}

void EadrlCombiner::Update(const math::Vec& preds, double actual) {
  SessionCallGuard guard(&busy_, "concurrent EadrlCombiner::Update");
  EADRL_CHECK(initialized_);
  // With the default OnlineUpdateMode::kNone this is a no-op and the policy
  // stays frozen, as in the paper; it returns before copying the forecasts.
  // The periodic/drift-informed modes implement the paper's future-work
  // proposal.
  if (config_.online_update == OnlineUpdateMode::kNone) return;
  MaybeOnlineUpdate(ReduceToActive(preds), actual);
}

}  // namespace eadrl::core
