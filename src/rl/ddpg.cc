#include "rl/ddpg.h"

#include <cmath>

#include "chk/chk.h"
#include "common/check.h"
#include "math/vec.h"
#include "nn/param.h"
#include "obs/trace.h"

namespace eadrl::rl {
namespace {

std::vector<size_t> LayerSizes(size_t in, const std::vector<size_t>& hidden,
                               size_t out) {
  std::vector<size_t> sizes;
  sizes.push_back(in);
  for (size_t h : hidden) sizes.push_back(h);
  sizes.push_back(out);
  return sizes;
}

// Workspace slot map for Update, Act and ActWithNoise: each slot is a
// stable, reusable batch-major buffer (see math::Workspace). Warm after the
// first call.
enum WsSlot : size_t {
  kWsNextActions = 0,  // n x action_dim (target policy, post-softmax)
  kWsNextQ,            // n x action_dim (target critic)
  kWsCriticDz,         // n x action_dim
  kWsScaledLogits,     // n x action_dim
  kWsProbs,            // n x action_dim
  kWsDqDa,             // n x action_dim
  kWsActorDz,          // n x action_dim
  kWsScratch,          // hidden activations of every Infer pass
  kWsActState,         // 1 x state_dim
  kWsActOut,           // 1 x action_dim
};

/// Dot of row `b` of two equally-shaped matrices, columns in ascending
/// order — the batched equivalent of math::Dot on the copied-out rows.
double RowDot(const math::Matrix& a, const math::Matrix& b, size_t row) {
  const double* x = a.RowPtr(row);
  const double* y = b.RowPtr(row);
  double s = 0.0;
  for (size_t j = 0; j < a.cols(); ++j) s += x[j] * y[j];
  return s;
}

}  // namespace

DdpgAgent::DdpgAgent(const DdpgConfig& config)
    : config_(config),
      rng_(config.seed),
      actor_opt_(config.actor_lr),
      critic_opt_(config.critic_lr),
      updates_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_ddpg_updates_total")),
      critic_loss_gauge_(obs::MetricRegistry::Default().GetGauge(
          "eadrl_ddpg_critic_loss")),
      mean_abs_q_gauge_(obs::MetricRegistry::Default().GetGauge(
          "eadrl_ddpg_mean_abs_q")),
      actor_grad_norm_gauge_(obs::MetricRegistry::Default().GetGauge(
          "eadrl_ddpg_actor_grad_norm")),
      action_entropy_gauge_(obs::MetricRegistry::Default().GetGauge(
          "eadrl_ddpg_action_entropy")) {
  EADRL_CHECK_GT(config_.state_dim, 0u);
  EADRL_CHECK_GT(config_.action_dim, 0u);
  EADRL_CHK(config_.tau > 0.0 && config_.tau <= 1.0,
            "DdpgConfig.tau in (0, 1]");
  EADRL_CHK_RANGE(config_.gamma, 0.0, 1.0, "DdpgConfig.gamma");
  EADRL_CHK(config_.batch_size > 0, "DdpgConfig.batch_size positive");
  EADRL_CHK(config_.grad_clip > 0.0, "DdpgConfig.grad_clip positive");

  actor_ = std::make_unique<nn::Mlp>(
      LayerSizes(config_.state_dim, config_.actor_hidden, config_.action_dim),
      nn::Activation::kRelu, nn::Activation::kIdentity, rng_);
  critic_ = std::make_unique<nn::Mlp>(
      LayerSizes(config_.state_dim, config_.critic_hidden, config_.action_dim),
      nn::Activation::kRelu, nn::Activation::kIdentity, rng_);
  // DDPG's small final-layer init keeps the initial policy near uniform and
  // initial Q-values near zero.
  actor_->ReinitOutputUniform(3e-3, rng_);
  critic_->ReinitOutputUniform(3e-3, rng_);

  target_actor_ = std::make_unique<nn::Mlp>(
      LayerSizes(config_.state_dim, config_.actor_hidden, config_.action_dim),
      nn::Activation::kRelu, nn::Activation::kIdentity, rng_);
  target_critic_ = std::make_unique<nn::Mlp>(
      LayerSizes(config_.state_dim, config_.critic_hidden, config_.action_dim),
      nn::Activation::kRelu, nn::Activation::kIdentity, rng_);
  actor_params_ = actor_->Params();
  critic_params_ = critic_->Params();
  target_actor_params_ = target_actor_->Params();
  target_critic_params_ = target_critic_->Params();
  nn::CopyParams(target_actor_params_, actor_params_);
  nn::CopyParams(target_critic_params_, critic_params_);

  actor_opt_.Register(actor_params_);
  critic_opt_.Register(critic_params_);
}

void DdpgAgent::ActBatch(const math::Matrix& states, math::Matrix* actions,
                         math::Matrix* scratch) const {
  if (packed_actor_.empty()) {
    actor_->Infer(states, actions, scratch);
  } else {
    packed_actor_.Infer(states, actions, scratch);
  }
  actions->Scale(config_.logit_scale);
  math::SoftmaxRowsInPlace(actions);
}

const math::Matrix& DdpgAgent::StateRow(const math::Vec& state) {
  math::Matrix& row = ws_.mat(kWsActState, 1, state.size());
  row.SetRow(0, state);
  return row;
}

void DdpgAgent::PackActor() { packed_actor_.Pack(*actor_); }

math::Vec DdpgAgent::Act(const math::Vec& state) {
  if (packed_actor_.empty()) PackActor();
  math::Matrix& actions = ws_.mat(kWsActOut, 1, config_.action_dim);
  ActBatch(StateRow(state), &actions, &ws_.mat(kWsScratch, 1, 0));
  math::Vec action = actions.Row(0);
  EADRL_CHK_SIMPLEX(action, 1e-6, "DdpgAgent::Act action");
  return action;
}

math::Vec DdpgAgent::ActWithNoise(const math::Vec& state,
                                  const math::Vec& noise) {
  EADRL_CHECK_EQ(noise.size(), config_.action_dim);
  math::Matrix& logits = ws_.mat(kWsActOut, 1, config_.action_dim);
  actor_->Infer(StateRow(state), &logits, &ws_.mat(kWsScratch, 1, 0));
  math::Vec& z = logits.data();
  for (size_t i = 0; i < z.size(); ++i) {
    z[i] = config_.logit_scale * z[i] + noise[i];
  }
  return math::Softmax(z);
}

double DdpgAgent::QValue(const math::Vec& state,
                         const math::Vec& action) const {
  math::Matrix q;
  math::Matrix scratch;
  critic_->Infer(math::Matrix::FromRows({state}), &q, &scratch);
  return math::Dot(action, q.data());
}

math::Vec DdpgAgent::SoftmaxJacobianVjp(const math::Vec& probs,
                                        const math::Vec& grad_probs) {
  // (J_softmax)^T g, with J_ij = p_i (delta_ij - p_j):
  // out_j = p_j * (g_j - sum_i g_i p_i).
  double inner = math::Dot(grad_probs, probs);
  math::Vec out(probs.size());
  for (size_t j = 0; j < probs.size(); ++j) {
    out[j] = probs[j] * (grad_probs[j] - inner);
  }
  return out;
}

std::vector<math::Matrix> DdpgAgent::ActorWeights() const {
  std::vector<math::Matrix> out;
  for (const nn::Param* p : actor_params_) out.push_back(p->value);
  return out;
}

void DdpgAgent::SetActorWeights(const std::vector<math::Matrix>& weights) {
  const std::vector<nn::Param*>& params = actor_params_;
  EADRL_CHECK_EQ(params.size(), weights.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EADRL_CHK_SHAPE(weights[i].rows(), weights[i].cols(),
                    params[i]->value.rows(), params[i]->value.cols(),
                    "DdpgAgent::SetActorWeights weight block");
    EADRL_CHK_FINITE(weights[i].data(),
                     "DdpgAgent::SetActorWeights actor weights");
    params[i]->value = weights[i];
  }
  PackActor();
}

double DdpgAgent::Update(const Minibatch& batch) {
  const size_t n = batch.size();
  const size_t s_dim = config_.state_dim;
  const size_t a_dim = config_.action_dim;
  EADRL_CHECK_GT(n, 0u);
  EADRL_CHECK(batch.states.rows() == n && batch.states.cols() == s_dim &&
              batch.next_states.rows() == n &&
              batch.next_states.cols() == s_dim &&
              batch.actions.rows() == n && batch.actions.cols() == a_dim &&
              batch.terminals.size() == n);
  obs::Span span("ddpg_update");
  if (span.armed()) {
    span.SetAttr("batch", n);
    span.SetAttr("update", num_updates_ + 1);
  }
  const double inv_n = 1.0 / static_cast<double>(n);

  // The minibatch is batch-major already (row b = transition b), and the
  // workspace buffers are warm after the first update at a given batch
  // size, so the whole update allocates nothing.
  const math::Matrix& states = batch.states;
  const math::Matrix& next_states = batch.next_states;
  const math::Matrix& actions = batch.actions;

  // --- Critic update: minimize (Q(s,a) - y)^2, y from target networks. ----
  // Every per-row quantity below is computed by exactly the arithmetic the
  // scalar path applies per transition, and every accumulation (loss, |Q|,
  // and the gradients inside BackwardBatch) runs over rows in ascending
  // order — which is what makes this path bit-identical to
  // UpdateScalarForTest.
  double critic_loss = 0.0;
  double abs_q_sum = 0.0;
  {
    obs::Span critic_span("critic_update");
    // Target policy actions for all next states (terminal rows are computed
    // too and simply never read — target nets are pure functions, so the
    // extra rows cost a few flops and change nothing).
    math::Matrix& scratch = ws_.mat(kWsScratch, n, 0);
    math::Matrix& next_actions = ws_.mat(kWsNextActions, n, a_dim);
    target_actor_->Infer(next_states, &next_actions, &scratch);
    next_actions.Scale(config_.logit_scale);
    math::SoftmaxRowsInPlace(&next_actions);

    math::Matrix& next_q = ws_.mat(kWsNextQ, n, a_dim);
    target_critic_->Infer(next_states, &next_q, &scratch);
    const math::Matrix& q = critic_->ForwardBatch(states);

    math::Matrix& dz = ws_.mat(kWsCriticDz, n, a_dim);
    for (size_t b = 0; b < n; ++b) {
      double target = batch.rewards[b];
      if (!batch.terminals[b]) {
        target += config_.gamma * RowDot(next_actions, next_q, b);
      }
      double qv = RowDot(actions, q, b);
      double err = qv - target;
      critic_loss += err * err * inv_n;
      abs_q_sum += std::fabs(qv);
      // dL/dq_i = 2 * err * a_i / N.
      const double s = 2.0 * err * inv_n;
      const double* arow = actions.RowPtr(b);
      double* dzrow = dz.RowPtr(b);
      for (size_t j = 0; j < a_dim; ++j) dzrow[j] = arow[j] * s;
    }
    critic_->BackwardBatch(dz);
    nn::ClipGradNorm(critic_params_, config_.grad_clip);
    critic_opt_.StepAndZero();
  }

  // --- Actor update: ascend dQ/dtheta through the softmax. ----------------
  double entropy_sum = 0.0;
  {
    obs::Span actor_span("actor_update");
    math::Matrix& logits = ws_.mat(kWsScaledLogits, n, a_dim);
    logits = actor_->ForwardBatch(states);
    logits.Scale(config_.logit_scale);
    math::Matrix& probs = ws_.mat(kWsProbs, n, a_dim);
    probs = logits;
    math::SoftmaxRowsInPlace(&probs);

    // dQ/da = q(s) for every row, then the softmax-Jacobian VJP row-wise.
    math::Matrix& dq_da = ws_.mat(kWsDqDa, n, a_dim);
    critic_->Infer(states, &dq_da, &ws_.mat(kWsScratch, n, 0));

    math::Matrix& dz = ws_.mat(kWsActorDz, n, a_dim);
    for (size_t b = 0; b < n; ++b) {
      const double* prow = probs.RowPtr(b);
      for (size_t j = 0; j < a_dim; ++j) {
        if (prow[j] > 0.0) entropy_sum -= prow[j] * std::log(prow[j]);
      }
      const double* grow = dq_da.RowPtr(b);
      // SoftmaxJacobianVjp on the row, then the same chain as the scalar
      // path: descent on -Q through the logit scale plus the L2 pull of the
      // scaled logits toward zero.
      double inner = 0.0;
      for (size_t j = 0; j < a_dim; ++j) inner += grow[j] * prow[j];
      const double* lrow = logits.RowPtr(b);
      double* dzrow = dz.RowPtr(b);
      for (size_t j = 0; j < a_dim; ++j) {
        const double vjp = prow[j] * (grow[j] - inner);
        dzrow[j] = -inv_n * config_.logit_scale * vjp +
                   inv_n * config_.logit_l2 * lrow[j];
      }
    }
    actor_->BackwardBatch(dz);
  }
  const double loss = FinishUpdate(critic_loss, abs_q_sum, entropy_sum, inv_n);
  if (span.armed()) {
    span.SetAttr("critic_loss", last_stats_.critic_loss);
    span.SetAttr("mean_abs_q", last_stats_.mean_abs_q);
    span.SetAttr("actor_grad_norm", last_stats_.actor_grad_norm);
    span.SetAttr("action_entropy", last_stats_.action_entropy);
  }
  return loss;
}

double DdpgAgent::UpdateScalarForTest(const Minibatch& batch) {
  const size_t n = batch.size();
  const double inv_n = 1.0 / static_cast<double>(n);

  // --- Critic update: minimize (Q(s,a) - y)^2, y from target networks. ----
  double critic_loss = 0.0;
  double abs_q_sum = 0.0;
  {
    obs::Span critic_span("critic_update");
    for (size_t b = 0; b < n; ++b) {
      const math::Vec state = batch.states.Row(b);
      const math::Vec action = batch.actions.Row(b);
      double target = batch.rewards[b];
      if (!batch.terminals[b]) {
        const math::Vec next_state = batch.next_states.Row(b);
        math::Vec next_logits = target_actor_->Forward(next_state);
        for (double& v : next_logits) v *= config_.logit_scale;
        math::Vec next_action = math::Softmax(next_logits);
        target += config_.gamma *
                  math::Dot(next_action, target_critic_->Forward(next_state));
      }
      math::Vec q_vec = critic_->Forward(state);
      double q = math::Dot(action, q_vec);
      double err = q - target;
      critic_loss += err * err * inv_n;
      abs_q_sum += std::fabs(q);
      // dL/dq_i = 2 * err * a_i / N.
      critic_->Backward(math::Scale(action, 2.0 * err * inv_n));
    }
    nn::ClipGradNorm(critic_params_, config_.grad_clip);
    critic_opt_.StepAndZero();
  }

  // --- Actor update: ascend dQ/dtheta through the softmax. ----------------
  double entropy_sum = 0.0;
  {
    obs::Span actor_span("actor_update");
    for (size_t b = 0; b < n; ++b) {
      const math::Vec state = batch.states.Row(b);
      math::Vec logits = actor_->Forward(state);
      for (double& v : logits) v *= config_.logit_scale;
      math::Vec action = math::Softmax(logits);
      for (double p : action) {
        if (p > 0.0) entropy_sum -= p * std::log(p);
      }
      math::Vec dq_da = critic_->Forward(state);  // dQ/da = q(s), exactly.
      math::Vec dq_dz = SoftmaxJacobianVjp(action, dq_da);
      // Gradient ascent on Q == descent on -Q; chain through the logit scale
      // and add the L2 pull of the logits toward zero (uniform weights),
      // which keeps the actor from running away into action regions the
      // critic has never been trained on.
      for (size_t j = 0; j < dq_dz.size(); ++j) {
        dq_dz[j] = -inv_n * config_.logit_scale * dq_dz[j] +
                   inv_n * config_.logit_l2 * logits[j];
      }
      actor_->Backward(dq_dz);
    }
  }
  return FinishUpdate(critic_loss, abs_q_sum, entropy_sum, inv_n);
}

double DdpgAgent::FinishUpdate(double critic_loss, double abs_q_sum,
                               double entropy_sum, double inv_n) {
  // A diverged critic or an exploding policy gradient corrupts the learned
  // combination policy silently; fail here, where the update is attributable.
  EADRL_CHK_FINITE_VALUE(critic_loss, "DdpgAgent::Update critic loss");
  // The actor pass only reads q(s), so the critic's gradients are still the
  // zeros critic_opt_.StepAndZero() left.
  double actor_grad_norm = nn::ClipGradNorm(actor_params_, config_.grad_clip);
  EADRL_CHK_FINITE_VALUE(actor_grad_norm,
                         "DdpgAgent::Update actor gradient norm");
  actor_opt_.StepAndZero();
  packed_actor_.Clear();

  // --- Soft target updates. ------------------------------------------------
  {
    obs::Span sync_span("target_sync");
    nn::SoftUpdate(target_actor_params_, actor_params_, config_.tau);
    nn::SoftUpdate(target_critic_params_, critic_params_, config_.tau);
  }

  // --- Diagnostics. --------------------------------------------------------
  last_stats_.critic_loss = critic_loss;
  last_stats_.mean_abs_q = abs_q_sum * inv_n;
  last_stats_.actor_grad_norm = actor_grad_norm;
  last_stats_.action_entropy = entropy_sum * inv_n;
  ++num_updates_;
  updates_counter_->Inc();
  critic_loss_gauge_->Set(last_stats_.critic_loss);
  mean_abs_q_gauge_->Set(last_stats_.mean_abs_q);
  actor_grad_norm_gauge_->Set(last_stats_.actor_grad_norm);
  action_entropy_gauge_->Set(last_stats_.action_entropy);
  return critic_loss;
}

}  // namespace eadrl::rl
