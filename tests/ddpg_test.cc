#include "rl/ddpg.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/matrix.h"
#include "rl/env.h"

namespace eadrl::rl {
namespace {

DdpgConfig SmallConfig(size_t state_dim, size_t action_dim) {
  DdpgConfig cfg;
  cfg.state_dim = state_dim;
  cfg.action_dim = action_dim;
  cfg.actor_hidden = {16};
  cfg.critic_hidden = {16};
  cfg.seed = 7;
  return cfg;
}

TEST(DdpgTest, ActionsLiveOnTheSimplex) {
  DdpgAgent agent(SmallConfig(3, 4));
  math::Vec a = agent.Act({0.1, -0.2, 0.3});
  ASSERT_EQ(a.size(), 4u);
  double sum = std::accumulate(a.begin(), a.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double w : a) EXPECT_GT(w, 0.0);
}

TEST(DdpgTest, InitialPolicyNearUniform) {
  // DDPG's small output-layer init keeps logits near zero => near-uniform
  // softmax.
  DdpgAgent agent(SmallConfig(3, 5));
  math::Vec a = agent.Act({1.0, 2.0, -1.0});
  for (double w : a) EXPECT_NEAR(w, 0.2, 0.02);
}

TEST(DdpgTest, NoisyActionStaysOnSimplex) {
  DdpgAgent agent(SmallConfig(2, 3));
  math::Vec a = agent.ActWithNoise({0.5, 0.5}, {10.0, -10.0, 0.0});
  double sum = std::accumulate(a.begin(), a.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(a[0], 0.9);  // huge positive noise on logit 0 dominates.
}

TEST(DdpgTest, DeterministicForSeed) {
  DdpgAgent a(SmallConfig(2, 2)), b(SmallConfig(2, 2));
  math::Vec s{0.3, -0.3};
  EXPECT_EQ(a.Act(s), b.Act(s));
}

// ActBatch is const and writes only the caller's buffers, so threads share
// one agent without a lock (the serving layer's waves rely on this; the TSan
// stage of tools/check.sh runs this test). It runs on the network and then
// on the packed actor, which every thread must find giving the network's
// bits.
TEST(DdpgTest, SharedAgentActBatchIsReentrant) {
  DdpgConfig cfg = SmallConfig(5, 7);
  cfg.actor_hidden = {16, 12};
  DdpgAgent agent(cfg);
  constexpr size_t kThreads = 4;
  constexpr int kRounds = 300;
  Rng rng(19);
  std::vector<math::Matrix> states;
  std::vector<math::Matrix> serial(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    math::Matrix batch(2 + t, 5);
    for (double& v : batch.data()) v = rng.Uniform(-2.0, 2.0);
    states.push_back(std::move(batch));
    math::Matrix scratch;
    agent.ActBatch(states[t], &serial[t], &scratch);
  }
  for (bool packed : {false, true}) {
    if (packed) agent.PackActor();
    ASSERT_EQ(agent.actor_packed(), packed);
    const DdpgAgent& shared = agent;
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        math::Matrix actions;
        math::Matrix scratch;
        for (int r = 0; r < kRounds; ++r) {
          shared.ActBatch(states[t], &actions, &scratch);
          if (actions.size() != serial[t].size() ||
              std::memcmp(actions.data().data(), serial[t].data().data(),
                          serial[t].size() * sizeof(double)) != 0) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0u) << "packed " << packed;
  }
}

bool SameBits(const math::Vec& a, const math::Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Minibatch RandomMinibatch(size_t n, size_t state_dim, size_t action_dim,
                          Rng& rng) {
  std::vector<Transition> batch;
  for (size_t i = 0; i < n; ++i) {
    Transition t;
    for (size_t k = 0; k < state_dim; ++k) {
      t.state.push_back(rng.Uniform(-2.0, 2.0));
      t.next_state.push_back(rng.Uniform(-2.0, 2.0));
    }
    double sum = 0.0;
    for (size_t j = 0; j < action_dim; ++j) {
      t.action.push_back(rng.Uniform(0.01, 1.0));
      sum += t.action.back();
    }
    for (double& a : t.action) a /= sum;
    t.reward = rng.Uniform(0.0, 1.0);
    t.terminal = (i % 5 == 0);
    batch.push_back(std::move(t));
  }
  return Minibatch::FromTransitions(batch);
}

// Act runs the packed actor and ActWithNoise the network itself, so with
// zero noise they agree bit for bit, on the same agent, after each of 20
// updates (the batched and the per-transition one in turn): a pack kept
// across an update would act on the weights it was built from.
TEST(DdpgTest, ActMatchesTheNetworkAfterEveryUpdate) {
  DdpgConfig cfg = SmallConfig(5, 7);
  cfg.actor_hidden = {16, 12};
  DdpgAgent agent(cfg);
  Rng rng(23);
  const Minibatch batch = RandomMinibatch(8, 5, 7, rng);
  const math::Vec state{0.4, -1.2, 0.9, 2.0, -0.3};
  const math::Vec zeros(7, 0.0);
  ASSERT_TRUE(SameBits(agent.Act(state), agent.ActWithNoise(state, zeros)));
  for (int u = 0; u < 20; ++u) {
    ASSERT_TRUE(agent.actor_packed());
    if (u % 2 == 0) {
      agent.Update(batch);
    } else {
      agent.UpdateScalarForTest(batch);
    }
    EXPECT_FALSE(agent.actor_packed()) << "update " << u;
    ASSERT_TRUE(SameBits(agent.Act(state), agent.ActWithNoise(state, zeros)))
        << "update " << u;
  }
}

// SetActorWeights packs the weights it sets, replacing an earlier pack, and
// ActWithNoise never packs.
TEST(DdpgTest, SetActorWeightsPacksTheNewWeights) {
  DdpgConfig cfg = SmallConfig(5, 7);
  cfg.actor_hidden = {16, 12};
  DdpgAgent agent(cfg);
  cfg.seed = 99;
  DdpgAgent donor(cfg);
  const math::Vec state{0.4, -1.2, 0.9, 2.0, -0.3};
  const math::Vec zeros(7, 0.0);
  const math::Vec before = agent.Act(state);
  ASSERT_TRUE(agent.actor_packed());
  agent.SetActorWeights(donor.ActorWeights());
  EXPECT_TRUE(agent.actor_packed());
  const math::Vec after = agent.Act(state);
  EXPECT_TRUE(SameBits(after, agent.ActWithNoise(state, zeros)));
  EXPECT_TRUE(SameBits(after, donor.ActWithNoise(state, zeros)));
  EXPECT_FALSE(SameBits(after, before));
  EXPECT_FALSE(donor.actor_packed());
}

// A contextual-bandit-like environment: reward is highest when all weight is
// on model 0. The agent should learn to favor index 0.
TEST(DdpgTest, LearnsToFavorRewardingAction) {
  DdpgConfig cfg = SmallConfig(2, 2);
  cfg.actor_lr = 0.005;
  cfg.critic_lr = 0.02;
  cfg.gamma = 0.0;  // bandit: no bootstrapping needed.
  DdpgAgent agent(cfg);

  Rng rng(11);
  std::vector<Transition> batch;
  for (int step = 0; step < 600; ++step) {
    batch.clear();
    for (int i = 0; i < 16; ++i) {
      Transition t;
      t.state = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
      // Random exploratory simplex action.
      double w0 = rng.Uniform(0, 1);
      t.action = {w0, 1.0 - w0};
      t.reward = t.action[0];  // more weight on 0 => more reward.
      t.next_state = t.state;
      t.terminal = true;
      batch.push_back(std::move(t));
    }
    agent.Update(Minibatch::FromTransitions(batch));
  }
  math::Vec a = agent.Act({0.2, 0.4});
  EXPECT_GT(a[0], 0.75);
}

TEST(DdpgTest, CriticLearnsRewardValues) {
  DdpgConfig cfg = SmallConfig(1, 2);
  cfg.gamma = 0.0;
  cfg.critic_lr = 0.02;
  DdpgAgent agent(cfg);

  Rng rng(13);
  std::vector<Transition> batch;
  for (int step = 0; step < 500; ++step) {
    batch.clear();
    for (int i = 0; i < 16; ++i) {
      Transition t;
      t.state = {0.0};
      double w0 = rng.Uniform(0, 1);
      t.action = {w0, 1.0 - w0};
      t.reward = 3.0 * t.action[0];
      t.next_state = t.state;
      t.terminal = true;
      batch.push_back(std::move(t));
    }
    agent.Update(Minibatch::FromTransitions(batch));
  }
  double q_good = agent.QValue({0.0}, {1.0, 0.0});
  double q_bad = agent.QValue({0.0}, {0.0, 1.0});
  EXPECT_GT(q_good, q_bad + 1.0);
  EXPECT_NEAR(q_good, 3.0, 1.0);
}

TEST(DdpgTest, UpdateReturnsFiniteDecreasingLoss) {
  DdpgConfig cfg = SmallConfig(2, 2);
  cfg.gamma = 0.0;
  DdpgAgent agent(cfg);
  Rng rng(17);

  auto make_batch = [&]() {
    std::vector<Transition> batch;
    for (int i = 0; i < 16; ++i) {
      Transition t;
      t.state = {0.5, -0.5};
      t.action = {0.5, 0.5};
      t.reward = 1.0;
      t.next_state = t.state;
      t.terminal = true;
      batch.push_back(std::move(t));
    }
    return Minibatch::FromTransitions(batch);
  };

  double first = agent.Update(make_batch());
  double last = first;
  for (int i = 0; i < 200; ++i) last = agent.Update(make_batch());
  EXPECT_TRUE(std::isfinite(first));
  EXPECT_LT(last, first);
  EXPECT_LT(last, 0.05);  // constant reward is easy to fit.
}

}  // namespace
}  // namespace eadrl::rl
