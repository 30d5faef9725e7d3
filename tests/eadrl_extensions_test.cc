// Tests for the paper's future-work extensions: policy persistence,
// pruning, diversity-aware reward and online policy updates.

#include <cmath>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/eadrl.h"
#include "rl/env.h"

namespace eadrl::core {
namespace {

void MakeSkillGapData(size_t t_steps, uint64_t seed, math::Matrix* preds,
                      math::Vec* actuals) {
  Rng rng(seed);
  actuals->resize(t_steps);
  *preds = math::Matrix(t_steps, 4);
  double x = 10.0;
  for (size_t t = 0; t < t_steps; ++t) {
    x = 10.0 + 0.8 * (x - 10.0) + rng.Normal(0, 1.0);
    (*actuals)[t] = x;
    (*preds)(t, 0) = x + rng.Normal(0, 0.1);
    (*preds)(t, 1) = x + rng.Normal(0, 0.5);
    (*preds)(t, 2) = x + rng.Normal(0, 1.5);
    (*preds)(t, 3) = x + 5.0 + rng.Normal(0, 1.0);  // clearly worst.
  }
}

EadrlConfig FastConfig() {
  EadrlConfig cfg;
  cfg.omega = 5;
  cfg.max_episodes = 15;
  cfg.max_iterations = 50;
  cfg.actor_hidden = {16};
  cfg.critic_hidden = {16};
  cfg.batch_size = 8;
  cfg.warmup_transitions = 16;
  cfg.early_stop = false;
  cfg.restarts = 1;
  cfg.seed = 3;
  return cfg;
}

TEST(PolicyPersistenceTest, SaveLoadReproducesOnlineBehaviour) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(120, 1, &preds, &actuals);

  EadrlCombiner original(FastConfig());
  ASSERT_TRUE(original.Initialize(preds, actuals).ok());

  std::string path = testing::TempDir() + "/policy.txt";
  ASSERT_TRUE(original.SavePolicy(path).ok());

  EadrlCombiner restored(FastConfig());
  ASSERT_TRUE(restored.LoadPolicy(path).ok());

  // Identical online predictions over a short horizon.
  for (int t = 0; t < 10; ++t) {
    math::Vec step{10.0, 10.5, 11.0, 15.0};
    EXPECT_DOUBLE_EQ(original.Predict(step), restored.Predict(step));
  }
}

// The deployed actor is packed once Initialize or LoadPolicy returns; an
// online update drops the pack and the next Predict packs the new weights.
TEST(PackedActorTest, DeployedAgentIsPacked) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(120, 4, &preds, &actuals);
  {
    EadrlConfig cfg = FastConfig();
    cfg.max_episodes = 3;
    EadrlCombiner combiner(cfg);
    ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());
    EXPECT_TRUE(combiner.agent()->actor_packed());
    const std::string path = testing::TempDir() + "/packed_policy.txt";
    ASSERT_TRUE(combiner.SavePolicy(path).ok());
    EadrlCombiner restored(cfg);
    ASSERT_TRUE(restored.LoadPolicy(path).ok());
    EXPECT_TRUE(restored.agent()->actor_packed());
  }

  EadrlConfig cfg = FastConfig();
  cfg.max_episodes = 3;
  cfg.online_update = OnlineUpdateMode::kPeriodic;
  cfg.online_update_every = 10;
  cfg.online_update_iterations = 1;
  EadrlCombiner combiner(cfg);
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());
  size_t repacks = 0;
  for (int t = 0; t < 40; ++t) {
    const math::Vec step{10.0, 10.2, 10.4 + 0.01 * t, 15.0};
    combiner.Predict(step);
    EXPECT_TRUE(combiner.agent()->actor_packed());
    const size_t updates = combiner.online_updates();
    combiner.Update(step, 10.1);
    if (combiner.online_updates() > updates) {
      EXPECT_FALSE(combiner.agent()->actor_packed());
      ++repacks;
    }
  }
  EXPECT_GT(repacks, 0u);
}

TEST(PolicyPersistenceTest, SaveBeforeInitializeFails) {
  EadrlCombiner combiner(FastConfig());
  EXPECT_FALSE(combiner.SavePolicy(testing::TempDir() + "/x.txt").ok());
}

TEST(PolicyPersistenceTest, LoadRejectsMissingFileAndOmegaMismatch) {
  EadrlCombiner combiner(FastConfig());
  EXPECT_FALSE(combiner.LoadPolicy(testing::TempDir() + "/none.txt").ok());

  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(120, 2, &preds, &actuals);
  EadrlCombiner trained(FastConfig());
  ASSERT_TRUE(trained.Initialize(preds, actuals).ok());
  std::string path = testing::TempDir() + "/policy2.txt";
  ASSERT_TRUE(trained.SavePolicy(path).ok());

  EadrlConfig other = FastConfig();
  other.omega = 7;
  EadrlCombiner mismatched(other);
  EXPECT_FALSE(mismatched.LoadPolicy(path).ok());
}

TEST(PruningTest, RestrictsWeightsToTopModels) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(150, 3, &preds, &actuals);

  EadrlConfig cfg = FastConfig();
  cfg.prune_top_n = 2;
  EadrlCombiner combiner(cfg);
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());

  // Models 0 and 1 have the lowest validation error.
  EXPECT_EQ(combiner.active_models(), (std::vector<size_t>{0, 1}));

  math::Vec w = combiner.Weights();
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[2], 0.0);
  EXPECT_DOUBLE_EQ(w[3], 0.0);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-9);
}

TEST(PruningTest, PredictStillTakesFullPredictionVector) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(150, 4, &preds, &actuals);
  EadrlConfig cfg = FastConfig();
  cfg.prune_top_n = 2;
  EadrlCombiner combiner(cfg);
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());
  double p = combiner.Predict({10.0, 11.0, 99.0, -99.0});
  // Pruned models (2, 3) cannot influence the combination.
  EXPECT_GE(p, 10.0 - 1e-9);
  EXPECT_LE(p, 11.0 + 1e-9);
}

TEST(DiversityRewardTest, BonusRaisesRewardOfMixedActions) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(60, 5, &preds, &actuals);
  rl::EnsembleEnv plain(preds, actuals, 5, rl::RewardType::kRank, 0.0);
  rl::EnsembleEnv diverse(preds, actuals, 5, rl::RewardType::kRank, 1.0);
  plain.Reset();
  diverse.Reset();
  math::Vec mixed(4, 0.25);
  // Same base rank; the diversity term adds a non-negative bonus.
  EXPECT_GT(diverse.RewardAt(10, mixed), plain.RewardAt(10, mixed));

  // A one-hot action has zero dispersion: rewards match.
  math::Vec onehot{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(diverse.RewardAt(10, onehot), plain.RewardAt(10, onehot));
}

TEST(OnlineUpdateTest, FrozenByDefault) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(120, 6, &preds, &actuals);
  EadrlCombiner combiner(FastConfig());
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());
  for (int t = 0; t < 60; ++t) {
    math::Vec step{10.0, 10.2, 10.4, 15.0};
    combiner.Predict(step);
    combiner.Update(step, 10.1);
  }
  EXPECT_EQ(combiner.online_updates(), 0u);
}

TEST(OnlineUpdateTest, PeriodicModePerformsUpdates) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(120, 7, &preds, &actuals);
  EadrlConfig cfg = FastConfig();
  cfg.online_update = OnlineUpdateMode::kPeriodic;
  cfg.online_update_every = 10;
  cfg.online_update_iterations = 2;
  EadrlCombiner combiner(cfg);
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());

  Rng rng(8);
  for (int t = 0; t < 80; ++t) {
    double x = 10.0 + rng.Normal(0, 1.0);
    math::Vec step{x + rng.Normal(0, 0.1), x + rng.Normal(0, 0.5),
                   x + rng.Normal(0, 1.5), x + 5.0};
    combiner.Predict(step);
    combiner.Update(step, x);
  }
  EXPECT_GT(combiner.online_updates(), 0u);
  // Online updates keep weights on the simplex.
  math::Vec w = combiner.Weights();
  double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OnlineUpdateTest, DriftInformedModeTriggersOnRegimeChange) {
  math::Matrix preds;
  math::Vec actuals;
  MakeSkillGapData(120, 9, &preds, &actuals);
  EadrlConfig cfg = FastConfig();
  cfg.online_update = OnlineUpdateMode::kDriftInformed;
  cfg.online_update_iterations = 3;
  EadrlCombiner combiner(cfg);
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());

  Rng rng(10);
  // Calm regime first, then every model goes badly wrong (drift).
  for (int t = 0; t < 40; ++t) {
    double x = 10.0 + rng.Normal(0, 0.5);
    math::Vec step{x, x + 0.1, x - 0.1, x + 5.0};
    combiner.Predict(step);
    combiner.Update(step, x);
  }
  size_t before = combiner.online_updates();
  for (int t = 0; t < 40; ++t) {
    math::Vec step{50.0, 51.0, 52.0, 55.0};
    combiner.Predict(step);
    combiner.Update(step, 10.0 + rng.Normal(0, 0.5));
  }
  EXPECT_GT(combiner.online_updates(), before);
}

}  // namespace
}  // namespace eadrl::core
