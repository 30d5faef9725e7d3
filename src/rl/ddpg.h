#ifndef EADRL_RL_DDPG_H_
#define EADRL_RL_DDPG_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "math/workspace.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "rl/replay_buffer.h"
#include "rl/transition.h"

namespace eadrl::rl {

/// Hyper-parameters of the DDPG agent.
struct DdpgConfig {
  size_t state_dim = 0;
  size_t action_dim = 0;
  std::vector<size_t> actor_hidden = {64, 64};
  std::vector<size_t> critic_hidden = {64, 64};
  double actor_lr = 0.001;
  double critic_lr = 0.01;   // the paper tunes alpha = 0.01.
  double gamma = 0.9;        // the paper tunes gamma = 0.9.
  double tau = 0.01;         // soft target update rate.
  /// The actor's raw outputs are scaled by this factor before the softmax.
  double logit_scale = 1.0;
  /// L2 pull of the (scaled) logits toward zero in the actor objective —
  /// the policy pays for moving away from uniform weights, which prevents
  /// the runaway-saturation failure where the actor exploits critic
  /// extrapolation error in never-visited corners of the simplex.
  double logit_l2 = 0.01;
  size_t batch_size = 16;
  double grad_clip = 5.0;
  uint64_t seed = 42;
};

/// Per-Update training diagnostics — the signals both ensemble-RL lines of
/// related work use to diagnose instability (critic divergence shows up as
/// exploding |Q| and loss; policy collapse as vanishing action entropy).
struct DdpgUpdateStats {
  double critic_loss = 0.0;
  double mean_abs_q = 0.0;       ///< mean |Q(s,a)| over the batch.
  double actor_grad_norm = 0.0;  ///< pre-clip global L2 norm.
  double action_entropy = 0.0;   ///< mean policy-action entropy (nats).
};

/// Deep deterministic policy gradient agent (Lillicrap et al. 2015) for the
/// ensemble-weighting MDP. The actor outputs logits which are mapped through
/// a softmax so actions live on the probability simplex — the paper's
/// "standard normalization ... so that all the weights are positive and sum
/// to one". Exploration noise is added to the logits, keeping noisy actions
/// on the simplex too.
///
/// The critic is linear in the action: an MLP maps the state to per-model
/// values q(s) and Q(s, a) = a . q(s). For simplex-weight actions the reward
/// is close to linear in the weights, so this form identifies per-model
/// quality with far fewer samples than a net taking (state, action), whose
/// action-gradient must be estimated in m dimensions; dQ/da = q(s) is exact
/// (see DESIGN.md, "Key design decisions").
class DdpgAgent {
 public:
  explicit DdpgAgent(const DdpgConfig& config);

  /// Deterministic actions (ensemble weights) for a batch of states: row b
  /// of *actions is the simplex weight vector for row b of `states`. The
  /// policy's single inference entry point: it writes only the caller's
  /// buffers, so threads sharing one agent may call it concurrently, each
  /// with its own `actions` and `scratch`, while nothing updates the agent
  /// (cross-request batching for the serving path). It runs the packed
  /// actor when there is one and never builds one; both forms give the
  /// same bits.
  void ActBatch(const math::Matrix& states, math::Matrix* actions,
                math::Matrix* scratch) const;

  /// Deterministic action for one state: a 1-row ActBatch on the agent's
  /// own workspace, so calls on one agent must not overlap. Packs the actor
  /// first when it is not packed.
  math::Vec Act(const math::Vec& state);

  /// Packs the actor's current weights for inference (nn::PackedMlp). The
  /// pack lasts until the next Update or UpdateScalarForTest drops it;
  /// SetActorWeights and Act build it too.
  void PackActor();

  /// True while a pack built from the current actor weights exists.
  bool actor_packed() const { return !packed_actor_.empty(); }

  /// Exploratory action: softmax(logits + noise), on the agent's workspace.
  math::Vec ActWithNoise(const math::Vec& state, const math::Vec& noise);

  /// One DDPG update from a minibatch: critic regression toward the Bellman
  /// target using the target networks, then a deterministic policy-gradient
  /// step on the actor, then soft target updates. Returns the critic loss.
  ///
  /// The whole minibatch is evaluated in single batched passes over its
  /// matrices, read in place: gradient accumulation is one fused-transpose
  /// GEMM per layer whose batch-index summation order equals the
  /// per-transition walk of UpdateScalarForTest, so results are
  /// bit-identical to it (modulo exact-zero signs) and independent of the
  /// thread count.
  double Update(const Minibatch& batch);

  /// The per-transition reference implementation of Update, kept only as
  /// the oracle the batched path is tested against.
  double UpdateScalarForTest(const Minibatch& batch);

  /// Q-value estimate for diagnostics/tests.
  double QValue(const math::Vec& state, const math::Vec& action) const;

  /// Snapshot/restore of the actor parameters (used for best-checkpoint
  /// selection during offline training). SetActorWeights packs the actor.
  std::vector<math::Matrix> ActorWeights() const;
  void SetActorWeights(const std::vector<math::Matrix>& weights);

  const DdpgConfig& config() const { return config_; }

  /// Diagnostics of the most recent Update (zeros before the first one).
  const DdpgUpdateStats& last_update_stats() const { return last_stats_; }

  /// Total number of Update calls on this agent.
  size_t num_updates() const { return num_updates_; }

 private:
  static math::Vec SoftmaxJacobianVjp(const math::Vec& probs,
                                      const math::Vec& grad_probs);

  /// `state` as a 1-row batch in the agent's workspace.
  const math::Matrix& StateRow(const math::Vec& state);

  /// Shared tail of Update and UpdateScalarForTest: clip + step the actor,
  /// drop the packed actor, soft-update the targets, and publish the update
  /// stats and gauges. Returns the critic loss.
  double FinishUpdate(double critic_loss, double abs_q_sum,
                      double entropy_sum, double inv_n);

  DdpgConfig config_;
  Rng rng_;
  std::unique_ptr<nn::Mlp> actor_;
  std::unique_ptr<nn::Mlp> critic_;
  std::unique_ptr<nn::Mlp> target_actor_;
  std::unique_ptr<nn::Mlp> target_critic_;
  // The actor's weights as of the last PackActor; empty once an update has
  // moved them. ActWithNoise skips it: in training the weights move at
  // every step, and a repack costs more than one packed pass saves.
  nn::PackedMlp packed_actor_;
  // The four networks' parameter lists, gathered once.
  std::vector<nn::Param*> actor_params_;
  std::vector<nn::Param*> critic_params_;
  std::vector<nn::Param*> target_actor_params_;
  std::vector<nn::Param*> target_critic_params_;
  nn::Adam actor_opt_;
  nn::Adam critic_opt_;
  /// Reusable batch-major staging buffers for Update, Act and ActWithNoise
  /// (warm after the first call; slot map in ddpg.cc). Not thread-safe —
  /// those entry points run single-threaded, like the rest of the agent's
  /// mutable state.
  math::Workspace ws_;

  DdpgUpdateStats last_stats_;
  size_t num_updates_ = 0;
  // Cached from the default registry (stable pointers; see MetricRegistry).
  obs::Counter* updates_counter_;
  obs::Gauge* critic_loss_gauge_;
  obs::Gauge* mean_abs_q_gauge_;
  obs::Gauge* actor_grad_norm_gauge_;
  obs::Gauge* action_entropy_gauge_;
};

}  // namespace eadrl::rl

#endif  // EADRL_RL_DDPG_H_
