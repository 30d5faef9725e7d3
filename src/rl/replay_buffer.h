#ifndef EADRL_RL_REPLAY_BUFFER_H_
#define EADRL_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "math/vec.h"
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
///
/// Transition i is row i of contiguous state, action and next-state storage
/// plus entry i of the reward and terminal vectors. The rows grow into
/// reserved storage as the ring fills; once it is full, Add overwrites a row
/// in place, so it neither frees nor allocates.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity);

  /// Copies one transition's rows in. The first Add fixes the state and
  /// action widths; every later one must match them.
  void Add(const math::Vec& state, const math::Vec& action, double reward,
           const math::Vec& next_state, bool terminal);

  size_t size() const { return rewards_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return rewards_.empty(); }

  /// A copy of stored transition i (tests and diagnostics).
  Transition at(size_t i) const;

  /// Draws a batch of `n` transitions (with replacement) using the strategy
  /// and gathers their rows into *out, row b = draw b. Median-split degrades
  /// to uniform while the buffer holds fewer than two transitions or all
  /// rewards are identical. Uses the buffer's own select scratch, so calls
  /// on one buffer must not overlap; a warm *out makes it allocation-free.
  void Sample(size_t n, SamplingStrategy strategy, Rng& rng, Minibatch* out);

  /// Median of the stored rewards (used by median-split sampling and tests):
  /// the same value as math::Median over them, read in O(1).
  double RewardMedian() const;

 private:
  /// Replaces each median-split rank in picks_ (the first n_high among the
  /// rewards >= median, the rest among those below) by its buffer position.
  void SelectRanks(double median, size_t n_high);

  size_t capacity_;
  size_t state_dim_ = 0;
  size_t action_dim_ = 0;
  size_t next_ = 0;  // ring-buffer write position once full.
  math::Vec states_;       // size() x state_dim_, row-major.
  math::Vec actions_;      // size() x action_dim_
  math::Vec next_states_;  // size() x state_dim_
  math::Vec rewards_;
  std::vector<uint8_t> terminals_;
  // rewards_ in ascending order; Add keeps it in step with rewards_.
  math::Vec sorted_rewards_;
  // Sample scratch: drawn ranks, then buffer positions; and per select
  // block, how many rewards >= median the blocks before it hold.
  std::vector<size_t> picks_;
  std::vector<size_t> high_before_;
};

}  // namespace eadrl::rl

#endif  // EADRL_RL_REPLAY_BUFFER_H_
