#include "stats/bayes_tests.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eadrl::stats {
namespace {

TEST(CorrelatedTTestTest, ClearWinForA) {
  // Consistently negative differences: method A (losses) much lower.
  math::Vec diffs;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) diffs.push_back(-2.0 + rng.Normal(0, 0.1));
  auto result = BayesianCorrelatedTTest(diffs, 0.1, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_a_better, 0.99);
  EXPECT_LT(result->p_b_better, 0.01);
}

TEST(CorrelatedTTestTest, ClearWinForB) {
  math::Vec diffs;
  Rng rng(2);
  for (int i = 0; i < 50; ++i) diffs.push_back(1.5 + rng.Normal(0, 0.1));
  auto result = BayesianCorrelatedTTest(diffs, 0.1, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_b_better, 0.99);
}

TEST(CorrelatedTTestTest, SymmetricCaseSplits) {
  math::Vec diffs;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) diffs.push_back(rng.Normal(0, 1.0));
  auto result = BayesianCorrelatedTTest(diffs, 0.0, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->p_a_better, 0.5, 0.2);
  EXPECT_NEAR(result->p_a_better + result->p_b_better, 1.0, 1e-9);
}

TEST(CorrelatedTTestTest, CorrelationWidensPosterior) {
  math::Vec diffs;
  Rng rng(4);
  for (int i = 0; i < 30; ++i) diffs.push_back(-0.3 + rng.Normal(0, 0.5));
  auto indep = BayesianCorrelatedTTest(diffs, 0.0, 0.0);
  auto corr = BayesianCorrelatedTTest(diffs, 0.5, 0.0);
  ASSERT_TRUE(indep.ok() && corr.ok());
  // With correlation, the same evidence is weaker.
  EXPECT_LT(corr->p_a_better, indep->p_a_better);
}

TEST(CorrelatedTTestTest, RopeAbsorbsTinyDifferences) {
  math::Vec diffs(40, -0.01);  // tiny but consistent.
  auto result = BayesianCorrelatedTTest(diffs, 0.0, 0.1);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_rope, 0.9);
}

TEST(CorrelatedTTestTest, DegenerateConstantDiffs) {
  math::Vec diffs(10, -3.0);
  auto result = BayesianCorrelatedTTest(diffs, 0.0, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->p_a_better, 1.0);
}

TEST(CorrelatedTTestTest, RejectsBadInputs) {
  EXPECT_FALSE(BayesianCorrelatedTTest({1.0}, 0.0, 0.0).ok());
  EXPECT_FALSE(BayesianCorrelatedTTest({1.0, 2.0}, 1.0, 0.0).ok());
  EXPECT_FALSE(BayesianCorrelatedTTest({1.0, 2.0}, 0.0, -1.0).ok());
}

}  // namespace
}  // namespace eadrl::stats
