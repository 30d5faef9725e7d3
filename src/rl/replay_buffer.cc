#include "rl/replay_buffer.h"

#include <algorithm>

#include "common/check.h"
#include "obs/resource.h"

namespace eadrl::rl {

ReplayBuffer::ReplayBuffer(size_t capacity) : capacity_(capacity) {
  EADRL_CHECK_GT(capacity, 0u);
  buffer_.reserve(capacity);
  sorted_rewards_.reserve(capacity);
}

void ReplayBuffer::Add(Transition t) {
  // A non-finite reward silently poisons every Bellman target sampled from
  // this buffer; reject it at the door where the producer is on the stack.
  EADRL_CHK_FINITE_VALUE(t.reward, "ReplayBuffer::Add reward");
  EADRL_CHK_SIMPLEX(t.action, 1e-6, "ReplayBuffer::Add action");
  // Stored payload: the three vectors a transition owns (the Transition
  // struct itself lives in the preallocated ring).
  obs::CountAlloc((t.state.size() + t.action.size() + t.next_state.size()) *
                  sizeof(double));
  if (buffer_.size() == capacity_) {
    // Drop the overwritten reward. lower_bound finds it exactly for finite
    // rewards; the clamp keeps the erase in bounds (and the two containers
    // the same size) should a NaN slip past a compiled-out contract.
    auto old = std::lower_bound(sorted_rewards_.begin(), sorted_rewards_.end(),
                                buffer_[next_].reward);
    if (old == sorted_rewards_.end()) --old;
    sorted_rewards_.erase(old);
  }
  sorted_rewards_.insert(std::upper_bound(sorted_rewards_.begin(),
                                          sorted_rewards_.end(), t.reward),
                         t.reward);
  if (buffer_.size() < capacity_) {
    buffer_.push_back(std::move(t));
  } else {
    buffer_[next_] = std::move(t);
    next_ = (next_ + 1) % capacity_;
  }
}

double ReplayBuffer::RewardMedian() const {
  EADRL_CHECK(!buffer_.empty());
  // The same middle order statistic(s) math::Median selects.
  const size_t mid = sorted_rewards_.size() / 2;
  const double hi = sorted_rewards_[mid];
  if (sorted_rewards_.size() % 2 == 1) return hi;
  return 0.5 * (sorted_rewards_[mid - 1] + hi);
}

std::vector<Transition> ReplayBuffer::Sample(size_t n,
                                             SamplingStrategy strategy,
                                             Rng& rng) const {
  EADRL_CHK(n > 0, "ReplayBuffer::Sample batch size");
  EADRL_CHECK(!buffer_.empty());
  std::vector<Transition> batch;
  batch.reserve(n);

  if (strategy == SamplingStrategy::kUniform || buffer_.size() < 2) {
    for (size_t i = 0; i < n; ++i) batch.push_back(buffer_[rng.Index(size())]);
    return batch;
  }

  // Median split: indices with reward >= median vs. below, in buffer order.
  // The sorted rewards give both list sizes up front.
  double median = RewardMedian();
  const size_t n_at_or_above = static_cast<size_t>(
      sorted_rewards_.end() - std::lower_bound(sorted_rewards_.begin(),
                                               sorted_rewards_.end(), median));
  std::vector<size_t> high, low;
  high.reserve(n_at_or_above);
  low.reserve(buffer_.size() - n_at_or_above);
  for (size_t i = 0; i < buffer_.size(); ++i) {
    if (buffer_[i].reward >= median) {
      high.push_back(i);
    } else {
      low.push_back(i);
    }
  }
  if (high.empty() || low.empty()) {
    // All rewards equal — fall back to uniform.
    for (size_t i = 0; i < n; ++i) batch.push_back(buffer_[rng.Index(size())]);
    return batch;
  }

  size_t n_high = n / 2;
  size_t n_low = n - n_high;
  for (size_t i = 0; i < n_high; ++i) {
    batch.push_back(buffer_[high[rng.Index(high.size())]]);
  }
  for (size_t i = 0; i < n_low; ++i) {
    batch.push_back(buffer_[low[rng.Index(low.size())]]);
  }
  return batch;
}

}  // namespace eadrl::rl
