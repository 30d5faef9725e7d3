#ifndef EADRL_RL_TRANSITION_H_
#define EADRL_RL_TRANSITION_H_

#include <cstdint>
#include <vector>

#include "math/matrix.h"
#include "math/vec.h"

namespace eadrl::rl {

/// One MDP transition (s_t, a_t, r_t, s_{t+1}).
struct Transition {
  math::Vec state;
  math::Vec action;
  double reward = 0.0;
  math::Vec next_state;
  bool terminal = false;
};

/// A batch-major minibatch: row b of every member is transition b.
/// ReplayBuffer::Sample fills one in place, so a warm minibatch is reused
/// without allocating, and DdpgAgent::Update reads its matrices directly.
struct Minibatch {
  math::Matrix states;       ///< n x state_dim
  math::Matrix actions;      ///< n x action_dim
  math::Vec rewards;         ///< n
  math::Matrix next_states;  ///< n x state_dim
  std::vector<uint8_t> terminals;  ///< n; 1 where the episode ended.

  size_t size() const { return rewards.size(); }

  /// Resizes every member to n rows (contents unspecified).
  void Resize(size_t n, size_t state_dim, size_t action_dim);

  /// The transitions as one minibatch, in order (tests and benches).
  static Minibatch FromTransitions(const std::vector<Transition>& batch);
};

}  // namespace eadrl::rl

#endif  // EADRL_RL_TRANSITION_H_
