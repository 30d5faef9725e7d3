#include "rl/replay_buffer.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/stats.h"

namespace eadrl::rl {
namespace {

Transition MakeTransition(double reward) {
  Transition t;
  t.state = {0.0};
  t.action = {1.0};
  t.reward = reward;
  t.next_state = {0.0};
  return t;
}

void AddTransition(ReplayBuffer& buf, const Transition& t) {
  buf.Add(t.state, t.action, t.reward, t.next_state, t.terminal);
}

TEST(ReplayBufferTest, GrowsUntilCapacityThenOverwrites) {
  ReplayBuffer buf(3);
  EXPECT_TRUE(buf.empty());
  for (int i = 0; i < 5; ++i) AddTransition(buf, MakeTransition(i));
  EXPECT_EQ(buf.size(), 3u);
  // Oldest entries (0, 1) were overwritten by (3, 4).
  std::vector<double> rewards;
  for (size_t i = 0; i < buf.size(); ++i) rewards.push_back(buf.at(i).reward);
  std::sort(rewards.begin(), rewards.end());
  EXPECT_EQ(rewards, (std::vector<double>{2, 3, 4}));
}

TEST(ReplayBufferTest, RewardMedian) {
  ReplayBuffer buf(10);
  for (double r : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    AddTransition(buf, MakeTransition(r));
  }
  EXPECT_DOUBLE_EQ(buf.RewardMedian(), 3.0);
}

TEST(ReplayBufferTest, UniformSampleHasRequestedSize) {
  ReplayBuffer buf(10);
  for (int i = 0; i < 5; ++i) AddTransition(buf, MakeTransition(i));
  Rng rng(1);
  Minibatch batch;
  buf.Sample(8, SamplingStrategy::kUniform, rng, &batch);
  EXPECT_EQ(batch.size(), 8u);
  EXPECT_EQ(batch.states.rows(), 8u);
  EXPECT_EQ(batch.terminals.size(), 8u);
}

// Eq. 4 of the paper: half the batch >= median reward, half below.
class MedianSplitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MedianSplitProperty, BatchIsBalanced) {
  ReplayBuffer buf(100);
  Rng data_rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    AddTransition(buf, MakeTransition(data_rng.Uniform(0.0, 10.0)));
  }
  double median = buf.RewardMedian();

  Rng rng(GetParam() + 1000);
  Minibatch batch;
  buf.Sample(16, SamplingStrategy::kMedianSplit, rng, &batch);
  ASSERT_EQ(batch.size(), 16u);
  size_t high = 0, low = 0;
  for (double reward : batch.rewards) {
    if (reward >= median) {
      ++high;
    } else {
      ++low;
    }
  }
  EXPECT_EQ(high, 8u);
  EXPECT_EQ(low, 8u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MedianSplitProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ReplayBufferTest, MedianSplitOddBatchGivesExtraToLow) {
  ReplayBuffer buf(10);
  for (double r : {1.0, 1.0, 9.0, 9.0}) AddTransition(buf, MakeTransition(r));
  Rng rng(3);
  Minibatch batch;
  buf.Sample(5, SamplingStrategy::kMedianSplit, rng, &batch);
  size_t high = 0;
  for (double reward : batch.rewards) {
    if (reward >= buf.RewardMedian()) ++high;
  }
  EXPECT_EQ(high, 2u);
}

TEST(ReplayBufferTest, MedianSplitFallsBackWhenAllRewardsEqual) {
  ReplayBuffer buf(10);
  for (int i = 0; i < 6; ++i) AddTransition(buf, MakeTransition(5.0));
  Rng rng(4);
  Minibatch batch;
  buf.Sample(4, SamplingStrategy::kMedianSplit, rng, &batch);
  EXPECT_EQ(batch.size(), 4u);
}

TEST(ReplayBufferTest, MedianSplitSingleElementFallsBack) {
  ReplayBuffer buf(10);
  AddTransition(buf, MakeTransition(1.0));
  Rng rng(5);
  Minibatch batch;
  buf.Sample(3, SamplingStrategy::kMedianSplit, rng, &batch);
  EXPECT_EQ(batch.size(), 3u);
}

// Rewards shaped like the training loop's: rank rewards k/43 (many ties),
// with a share of negative values.
double TrainingLikeReward(Rng& rng) {
  const double rank = static_cast<double>(rng.Index(44)) / 43.0;
  return rng.Bernoulli(0.3) ? -rank : rank;
}

math::Vec StoredRewards(const ReplayBuffer& buf) {
  math::Vec rewards;
  for (size_t i = 0; i < buf.size(); ++i) rewards.push_back(buf.at(i).reward);
  return rewards;
}

// The buffer keeps its rewards sorted for the median; after every Add the
// median must equal math::Median over the stored rewards, through three
// wraps of the ring. Capacity 37 keeps the full ring odd-sized, 36 even.
TEST(ReplayBufferTest, RewardMedianMatchesMathMedianAcrossWraps) {
  for (size_t capacity : {37u, 36u}) {
    ReplayBuffer buf(capacity);
    Rng rng(11 + capacity);
    for (size_t i = 0; i < 4 * capacity; ++i) {
      AddTransition(buf, MakeTransition(TrainingLikeReward(rng)));
      ASSERT_EQ(buf.RewardMedian(), math::Median(StoredRewards(buf)))
          << "capacity " << capacity << " after add " << i;
    }
  }
}

// A transition with the training loop's row widths (10-wide states, 43
// members); its random rows identify it.
Transition MakeWideTransition(Rng& rng) {
  Transition t;
  t.state.resize(10);
  for (double& v : t.state) v = rng.Normal(0.0, 1.0);
  t.action.resize(43);
  double sum = 0.0;
  for (double& v : t.action) {
    v = rng.Uniform(0.01, 1.0);
    sum += v;
  }
  for (double& v : t.action) v /= sum;
  t.reward = TrainingLikeReward(rng);
  t.next_state.resize(10);
  for (double& v : t.next_state) v = rng.Normal(0.0, 1.0);
  t.terminal = rng.Bernoulli(0.05);
  return t;
}

// The replay buffer written out by brute force: a vector of transitions in
// buffer order, the oldest overwritten first once full, and sampling that
// builds both halves' index lists with math::Median and a buffer-order
// partition before drawing from them.
class ReferenceRing {
 public:
  explicit ReferenceRing(size_t capacity) : capacity_(capacity) {}

  void Add(Transition t) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(t));
    } else {
      ring_[next_] = std::move(t);
      next_ = (next_ + 1) % capacity_;
    }
  }

  std::vector<const Transition*> Uniform(size_t n, Rng& rng) const {
    std::vector<const Transition*> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(&ring_[rng.Index(ring_.size())]);
    }
    return batch;
  }

  std::vector<const Transition*> MedianSplit(size_t n, Rng& rng) const {
    if (ring_.size() < 2) return Uniform(n, rng);
    math::Vec rewards;
    for (const Transition& t : ring_) rewards.push_back(t.reward);
    const double median = math::Median(rewards);
    std::vector<size_t> high, low;
    for (size_t i = 0; i < ring_.size(); ++i) {
      (ring_[i].reward >= median ? high : low).push_back(i);
    }
    if (high.empty() || low.empty()) return Uniform(n, rng);
    std::vector<const Transition*> batch;
    for (size_t i = 0; i < n / 2; ++i) {
      batch.push_back(&ring_[high[rng.Index(high.size())]]);
    }
    for (size_t i = n / 2; i < n; ++i) {
      batch.push_back(&ring_[low[rng.Index(low.size())]]);
    }
    return batch;
  }

 private:
  size_t capacity_;
  size_t next_ = 0;
  std::vector<Transition> ring_;
};

bool SameBits(const double* a, const math::Vec& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(double)) == 0;
}

// Row b of `got` must be *want[b], bit for bit.
void ExpectBatchEquals(const Minibatch& got,
                       const std::vector<const Transition*>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t b = 0; b < want.size(); ++b) {
    const Transition& t = *want[b];
    ASSERT_EQ(got.states.cols(), t.state.size()) << where;
    ASSERT_EQ(got.actions.cols(), t.action.size()) << where;
    ASSERT_TRUE(SameBits(got.states.RowPtr(b), t.state))
        << where << " row " << b;
    ASSERT_TRUE(SameBits(got.actions.RowPtr(b), t.action))
        << where << " row " << b;
    ASSERT_TRUE(SameBits(&got.rewards[b], {t.reward}))
        << where << " row " << b;
    ASSERT_TRUE(SameBits(got.next_states.RowPtr(b), t.next_state))
        << where << " row " << b;
    ASSERT_EQ(got.terminals[b] != 0, t.terminal) << where << " row " << b;
  }
}

// Sampling against the brute-force ring, through two wraps, at capacities
// that fill one select block (37), a few (200) and the training loop's 5 000
// (79 blocks). The large ring is sampled after every 7th Add to bound the
// brute force's cost.
class SampleReference
    : public ::testing::TestWithParam<std::tuple<SamplingStrategy, uint64_t>> {
};

TEST_P(SampleReference, SampleMatchesBruteForce) {
  const auto [strategy, seed] = GetParam();
  for (size_t capacity : {37u, 200u, 5000u}) {
    ReplayBuffer buf(capacity);
    ReferenceRing reference(capacity);
    Rng data_rng(seed + capacity);
    Rng rng(seed + 500), reference_rng(seed + 500);
    const size_t every = capacity > 1000 ? 7 : 1;
    Minibatch batch;
    for (size_t i = 0; i < 2 * capacity + 5; ++i) {
      Transition t = MakeWideTransition(data_rng);
      AddTransition(buf, t);
      reference.Add(std::move(t));
      if (i % every != 0) continue;
      buf.Sample(16, strategy, rng, &batch);
      ExpectBatchEquals(batch,
                        strategy == SamplingStrategy::kUniform
                            ? reference.Uniform(16, reference_rng)
                            : reference.MedianSplit(16, reference_rng),
                        "capacity " + std::to_string(capacity) + " add " +
                            std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SampleReference,
    ::testing::Combine(::testing::Values(SamplingStrategy::kMedianSplit,
                                         SamplingStrategy::kUniform),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace eadrl::rl
