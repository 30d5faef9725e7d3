#include "rl/transition.h"

#include "common/check.h"

namespace eadrl::rl {

void Minibatch::Resize(size_t n, size_t state_dim, size_t action_dim) {
  states.Resize(n, state_dim);
  actions.Resize(n, action_dim);
  rewards.resize(n);
  next_states.Resize(n, state_dim);
  terminals.resize(n);
}

Minibatch Minibatch::FromTransitions(const std::vector<Transition>& batch) {
  EADRL_CHECK(!batch.empty());
  Minibatch out;
  out.Resize(batch.size(), batch.front().state.size(),
             batch.front().action.size());
  for (size_t b = 0; b < batch.size(); ++b) {
    const Transition& t = batch[b];
    out.states.SetRow(b, t.state);
    out.actions.SetRow(b, t.action);
    out.rewards[b] = t.reward;
    out.next_states.SetRow(b, t.next_state);
    out.terminals[b] = t.terminal ? 1 : 0;
  }
  return out;
}

}  // namespace eadrl::rl
