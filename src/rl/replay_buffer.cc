#include "rl/replay_buffer.h"

#include <algorithm>

#include "chk/chk.h"
#include "common/check.h"
#include "obs/resource.h"

namespace eadrl::rl {
namespace {

// Median-split sampling finds a drawn rank's buffer position through counts
// over blocks of this many consecutive rewards.
constexpr size_t kSelectBlock = 64;

// Two doubles, and the two 64-bit lanes a comparison of them yields: all
// ones where it holds, else zero.
using Lanes2 = double __attribute__((vector_size(2 * sizeof(double))));
using Mask2 = decltype(Lanes2{} >= Lanes2{});

// How many of the kSelectBlock rewards at `rewards` are >= median: each
// holding lane subtracts one from its accumulator, two vectors per step.
size_t CountBlockAtOrAbove(const double* rewards, double median) {
  const Lanes2 m = {median, median};
  Mask2 a = {};
  Mask2 b = {};
  for (size_t i = 0; i < kSelectBlock; i += 4) {
    Lanes2 x;
    Lanes2 y;
    __builtin_memcpy(&x, rewards + i, sizeof x);
    __builtin_memcpy(&y, rewards + i + 2, sizeof y);
    a += x >= m;
    b += y >= m;
  }
  const Mask2 sum = a + b;
  return static_cast<size_t>(-(sum[0] + sum[1]));
}

// Copies row `from` of the row-major `src`, `width` wide, to `dst`.
void CopyRow(const math::Vec& src, size_t from, size_t width, double* dst) {
  std::copy_n(src.data() + from * width, width, dst);
}

// The buffer position of the rank-th reward (0-based, in buffer order) of
// one half: those >= median if kHigh, else those below. `high_before[b]`
// counts the rewards >= median in blocks 0..b-1. The rank lies in the last
// block whose preceding blocks hold at most `rank` entries of the half, and
// a scan of that block counts the entries before it. Every count adds a
// comparison result, so no branch depends on a reward.
template <bool kHigh>
size_t SelectPosition(const double* rewards, size_t count, double median,
                      const std::vector<size_t>& high_before, size_t rank) {
  auto before = [&](size_t b) {
    return kHigh ? high_before[b] : b * kSelectBlock - high_before[b];
  };
  size_t block = 0;
  for (size_t b = 1; b < high_before.size(); ++b) block += before(b) <= rank;
  const size_t local = rank - before(block);
  const size_t begin = block * kSelectBlock;
  const size_t end = std::min(count, begin + kSelectBlock);
  size_t seen = 0;
  size_t offset = 0;
  for (size_t i = begin; i < end; ++i) {
    seen += (rewards[i] >= median) == kHigh;
    offset += seen <= local;
  }
  // In range whenever the counts agree; the clamp covers a NaN reward.
  return std::min(begin + offset, count - 1);
}

}  // namespace

ReplayBuffer::ReplayBuffer(size_t capacity) : capacity_(capacity) {
  EADRL_CHECK_GT(capacity, 0u);
  rewards_.reserve(capacity);
  terminals_.reserve(capacity);
  sorted_rewards_.reserve(capacity);
  high_before_.reserve((capacity + kSelectBlock - 1) / kSelectBlock);
}

void ReplayBuffer::Add(const math::Vec& state, const math::Vec& action,
                       double reward, const math::Vec& next_state,
                       bool terminal) {
  // A non-finite reward silently poisons every Bellman target sampled from
  // this buffer; reject it at the door where the producer is on the stack.
  EADRL_CHK_FINITE_VALUE(reward, "ReplayBuffer::Add reward");
  EADRL_CHK_SIMPLEX(action, 1e-6, "ReplayBuffer::Add action");
  if (empty()) {
    state_dim_ = state.size();
    action_dim_ = action.size();
    states_.reserve(capacity_ * state_dim_);
    actions_.reserve(capacity_ * action_dim_);
    next_states_.reserve(capacity_ * state_dim_);
  }
  EADRL_CHECK_EQ(state.size(), state_dim_);
  EADRL_CHECK_EQ(action.size(), action_dim_);
  EADRL_CHECK_EQ(next_state.size(), state_dim_);

  if (size() < capacity_) {
    // The ring is still filling: the rows grow into reserved storage.
    obs::CountAlloc((2 * state_dim_ + action_dim_) * sizeof(double));
    states_.insert(states_.end(), state.begin(), state.end());
    actions_.insert(actions_.end(), action.begin(), action.end());
    next_states_.insert(next_states_.end(), next_state.begin(),
                        next_state.end());
    rewards_.push_back(reward);
    terminals_.push_back(terminal ? 1 : 0);
    sorted_rewards_.insert(std::upper_bound(sorted_rewards_.begin(),
                                            sorted_rewards_.end(), reward),
                           reward);
    return;
  }

  // Full: the new reward replaces the overwritten one in the sorted copy.
  // lower_bound finds the old one exactly for finite rewards; the clamp
  // keeps every index in bounds should a NaN slip past a compiled-out
  // contract. The result is what erasing the old reward and inserting the
  // new one at its upper bound would leave, with one move of the rewards
  // between the two positions.
  double* sorted = sorted_rewards_.data();
  const size_t count = sorted_rewards_.size();
  size_t old = static_cast<size_t>(
      std::lower_bound(sorted, sorted + count, rewards_[next_]) - sorted);
  if (old == count) --old;
  const size_t upper = static_cast<size_t>(
      std::upper_bound(sorted, sorted + count, reward) - sorted);
  if (upper > old) {
    std::move(sorted + old + 1, sorted + upper, sorted + old);
    sorted[upper - 1] = reward;
  } else {
    std::move_backward(sorted + upper, sorted + old, sorted + old + 1);
    sorted[upper] = reward;
  }

  std::copy(state.begin(), state.end(), states_.begin() + next_ * state_dim_);
  std::copy(action.begin(), action.end(),
            actions_.begin() + next_ * action_dim_);
  std::copy(next_state.begin(), next_state.end(),
            next_states_.begin() + next_ * state_dim_);
  rewards_[next_] = reward;
  terminals_[next_] = terminal ? 1 : 0;
  next_ = (next_ + 1) % capacity_;
}

Transition ReplayBuffer::at(size_t i) const {
  EADRL_CHK_BOUND(i, size(), "ReplayBuffer::at");
  Transition t;
  t.state.assign(states_.begin() + i * state_dim_,
                 states_.begin() + (i + 1) * state_dim_);
  t.action.assign(actions_.begin() + i * action_dim_,
                  actions_.begin() + (i + 1) * action_dim_);
  t.reward = rewards_[i];
  t.next_state.assign(next_states_.begin() + i * state_dim_,
                      next_states_.begin() + (i + 1) * state_dim_);
  t.terminal = terminals_[i] != 0;
  return t;
}

double ReplayBuffer::RewardMedian() const {
  EADRL_CHECK(!empty());
  // The same middle order statistic(s) math::Median selects.
  const size_t mid = sorted_rewards_.size() / 2;
  const double hi = sorted_rewards_[mid];
  if (sorted_rewards_.size() % 2 == 1) return hi;
  return 0.5 * (sorted_rewards_[mid - 1] + hi);
}

void ReplayBuffer::Sample(size_t n, SamplingStrategy strategy, Rng& rng,
                          Minibatch* out) {
  EADRL_CHK(n > 0, "ReplayBuffer::Sample batch size");
  EADRL_CHECK(!empty());
  const size_t count = size();
  picks_.resize(n);

  // Median split: the sorted rewards give the sizes of both halves, the
  // rewards >= median and those below. Every index is drawn first, with the
  // rng calls that drawing from each half's buffer-order index list makes;
  // SelectRanks then maps each drawn rank to its buffer position.
  bool split = strategy == SamplingStrategy::kMedianSplit && count >= 2;
  double median = 0.0;
  size_t n_at_or_above = 0;
  if (split) {
    median = RewardMedian();
    n_at_or_above = static_cast<size_t>(
        sorted_rewards_.end() - std::lower_bound(sorted_rewards_.begin(),
                                                 sorted_rewards_.end(),
                                                 median));
    // All rewards equal: fall back to uniform.
    split = n_at_or_above > 0 && n_at_or_above < count;
  }
  if (split) {
    const size_t n_high = n / 2;
    for (size_t k = 0; k < n_high; ++k) picks_[k] = rng.Index(n_at_or_above);
    for (size_t k = n_high; k < n; ++k) {
      picks_[k] = rng.Index(count - n_at_or_above);
    }
    SelectRanks(median, n_high);
  } else {
    for (size_t& pick : picks_) pick = rng.Index(count);
  }

  out->Resize(n, state_dim_, action_dim_);
  for (size_t b = 0; b < n; ++b) {
    const size_t i = picks_[b];
    CopyRow(states_, i, state_dim_, out->states.RowPtr(b));
    CopyRow(actions_, i, action_dim_, out->actions.RowPtr(b));
    out->rewards[b] = rewards_[i];
    CopyRow(next_states_, i, state_dim_, out->next_states.RowPtr(b));
    out->terminals[b] = terminals_[i];
  }
}

void ReplayBuffer::SelectRanks(double median, size_t n_high) {
  const double* rewards = rewards_.data();
  const size_t count = size();
  const size_t blocks = (count + kSelectBlock - 1) / kSelectBlock;
  // Only the last block can be short, and no prefix counts it.
  high_before_.resize(blocks);
  high_before_[0] = 0;
  for (size_t b = 1; b < blocks; ++b) {
    high_before_[b] = high_before_[b - 1] +
                      CountBlockAtOrAbove(rewards + (b - 1) * kSelectBlock,
                                          median);
  }
  for (size_t k = 0; k < n_high; ++k) {
    picks_[k] = SelectPosition<true>(rewards, count, median, high_before_,
                                     picks_[k]);
  }
  for (size_t k = n_high; k < picks_.size(); ++k) {
    picks_[k] = SelectPosition<false>(rewards, count, median, high_before_,
                                      picks_[k]);
  }
}

}  // namespace eadrl::rl
