#ifndef EADRL_RL_REPLAY_BUFFER_H_
#define EADRL_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <vector>

#include "chk/chk.h"
#include "common/rng.h"
#include "rl/transition.h"

namespace eadrl::rl {

/// How minibatches are drawn from the replay buffer.
enum class SamplingStrategy {
  /// Uniform random sampling (Lillicrap et al. 2015).
  kUniform,
  /// The paper's diversity sampling (Sec. II-D, Eq. 4): half the batch from
  /// transitions with reward >= median, half from below-median transitions,
  /// so the networks see both successful and unsuccessful weightings.
  kMedianSplit,
};

/// Fixed-capacity FIFO replay buffer R storing up to N_max transitions.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity);

  void Add(Transition t);

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return buffer_.empty(); }

  const Transition& at(size_t i) const {
    EADRL_CHK_BOUND(i, buffer_.size(), "ReplayBuffer::at");
    return buffer_[i];
  }

  /// Draws a batch of `n` transitions (with replacement) using the strategy.
  /// Median-split degrades to uniform while the buffer holds fewer than two
  /// transitions or all rewards are identical.
  std::vector<Transition> Sample(size_t n, SamplingStrategy strategy,
                                 Rng& rng) const;

  /// Median of the stored rewards (used by median-split sampling and tests):
  /// the same value as math::Median over them, read in O(1).
  double RewardMedian() const;

 private:
  size_t capacity_;
  size_t next_ = 0;  // ring-buffer write position once full.
  std::vector<Transition> buffer_;
  // buffer_'s rewards in ascending order; Add keeps it in step with buffer_.
  std::vector<double> sorted_rewards_;
};

}  // namespace eadrl::rl

#endif  // EADRL_RL_REPLAY_BUFFER_H_
