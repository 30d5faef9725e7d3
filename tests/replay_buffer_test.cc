#include "rl/replay_buffer.h"

#include <algorithm>
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

TEST(ReplayBufferTest, GrowsUntilCapacityThenOverwrites) {
  ReplayBuffer buf(3);
  EXPECT_TRUE(buf.empty());
  for (int i = 0; i < 5; ++i) buf.Add(MakeTransition(i));
  EXPECT_EQ(buf.size(), 3u);
  // Oldest entries (0, 1) were overwritten by (3, 4).
  std::vector<double> rewards;
  for (size_t i = 0; i < buf.size(); ++i) rewards.push_back(buf.at(i).reward);
  std::sort(rewards.begin(), rewards.end());
  EXPECT_EQ(rewards, (std::vector<double>{2, 3, 4}));
}

TEST(ReplayBufferTest, RewardMedian) {
  ReplayBuffer buf(10);
  for (double r : {1.0, 2.0, 3.0, 4.0, 5.0}) buf.Add(MakeTransition(r));
  EXPECT_DOUBLE_EQ(buf.RewardMedian(), 3.0);
}

TEST(ReplayBufferTest, UniformSampleHasRequestedSize) {
  ReplayBuffer buf(10);
  for (int i = 0; i < 5; ++i) buf.Add(MakeTransition(i));
  Rng rng(1);
  auto batch = buf.Sample(8, SamplingStrategy::kUniform, rng);
  EXPECT_EQ(batch.size(), 8u);
}

// Eq. 4 of the paper: half the batch >= median reward, half below.
class MedianSplitProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MedianSplitProperty, BatchIsBalanced) {
  ReplayBuffer buf(100);
  Rng data_rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    buf.Add(MakeTransition(data_rng.Uniform(0.0, 10.0)));
  }
  double median = buf.RewardMedian();

  Rng rng(GetParam() + 1000);
  auto batch = buf.Sample(16, SamplingStrategy::kMedianSplit, rng);
  ASSERT_EQ(batch.size(), 16u);
  size_t high = 0, low = 0;
  for (const Transition& t : batch) {
    if (t.reward >= median) {
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
  for (double r : {1.0, 1.0, 9.0, 9.0}) buf.Add(MakeTransition(r));
  Rng rng(3);
  auto batch = buf.Sample(5, SamplingStrategy::kMedianSplit, rng);
  size_t high = 0;
  for (const Transition& t : batch) {
    if (t.reward >= buf.RewardMedian()) ++high;
  }
  EXPECT_EQ(high, 2u);
}

TEST(ReplayBufferTest, MedianSplitFallsBackWhenAllRewardsEqual) {
  ReplayBuffer buf(10);
  for (int i = 0; i < 6; ++i) buf.Add(MakeTransition(5.0));
  Rng rng(4);
  auto batch = buf.Sample(4, SamplingStrategy::kMedianSplit, rng);
  EXPECT_EQ(batch.size(), 4u);
}

TEST(ReplayBufferTest, MedianSplitSingleElementFallsBack) {
  ReplayBuffer buf(10);
  buf.Add(MakeTransition(1.0));
  Rng rng(5);
  auto batch = buf.Sample(3, SamplingStrategy::kMedianSplit, rng);
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
      buf.Add(MakeTransition(TrainingLikeReward(rng)));
      ASSERT_EQ(buf.RewardMedian(), math::Median(StoredRewards(buf)))
          << "capacity " << capacity << " after add " << i;
    }
  }
}

// Median-split sampling written out by brute force: math::Median, a
// buffer-order partition, then the same draws as ReplayBuffer::Sample.
std::vector<Transition> ReferenceMedianSplit(const ReplayBuffer& buf,
                                             size_t n, Rng& rng) {
  std::vector<Transition> batch;
  auto uniform = [&]() {
    for (size_t i = 0; i < n; ++i) batch.push_back(buf.at(rng.Index(buf.size())));
    return batch;
  };
  if (buf.size() < 2) return uniform();
  const double median = math::Median(StoredRewards(buf));
  std::vector<size_t> high, low;
  for (size_t i = 0; i < buf.size(); ++i) {
    (buf.at(i).reward >= median ? high : low).push_back(i);
  }
  if (high.empty() || low.empty()) return uniform();
  for (size_t i = 0; i < n / 2; ++i) {
    batch.push_back(buf.at(high[rng.Index(high.size())]));
  }
  for (size_t i = n / 2; i < n; ++i) {
    batch.push_back(buf.at(low[rng.Index(low.size())]));
  }
  return batch;
}

class MedianSplitReference : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MedianSplitReference, SampleMatchesBruteForce) {
  ReplayBuffer buf(37);
  Rng data_rng(GetParam());
  Rng rng(GetParam() + 500), reference_rng(GetParam() + 500);
  for (size_t i = 0; i < 3 * 37 + 5; ++i) {
    Transition t = MakeTransition(TrainingLikeReward(data_rng));
    t.state = {static_cast<double>(i)};  // identifies the transition.
    buf.Add(std::move(t));
    const std::vector<Transition> got =
        buf.Sample(16, SamplingStrategy::kMedianSplit, rng);
    const std::vector<Transition> want =
        ReferenceMedianSplit(buf, 16, reference_rng);
    ASSERT_EQ(got.size(), want.size());
    for (size_t b = 0; b < got.size(); ++b) {
      ASSERT_EQ(got[b].state, want[b].state) << "add " << i << " row " << b;
      ASSERT_EQ(got[b].reward, want[b].reward) << "add " << i << " row " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MedianSplitReference,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace eadrl::rl
