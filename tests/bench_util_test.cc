// Environment knobs of the paper-reproduction benches (bench/bench_util.h):
// 0 is a real value for the length and the seed (EADRL_BENCH_LENGTH=0 means
// each dataset's default length), while unset or malformed values, and 0 for
// the counts that must be positive, fall back to the defaults.

#include <cstdlib>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "ts/datasets.h"

namespace eadrl::bench {
namespace {

constexpr const char* kKnobs[] = {
    "EADRL_BENCH_LENGTH",    "EADRL_BENCH_SEED",       "EADRL_BENCH_EPISODES",
    "EADRL_BENCH_NN_EPOCHS", "EADRL_BENCH_ITERATIONS",
};

class BenchKnobTest : public ::testing::Test {
 protected:
  void SetUp() override { UnsetAll(); }
  void TearDown() override { UnsetAll(); }

  static void UnsetAll() {
    for (const char* knob : kKnobs) ::unsetenv(knob);
  }
  static void Set(const char* knob, const char* value) {
    ::setenv(knob, value, /*overwrite=*/1);
  }
};

TEST_F(BenchKnobTest, UnsetKnobsUseTheDefaults) {
  EXPECT_EQ(BenchLength(), 400u);
  EXPECT_EQ(BenchSeed(), 42u);
  const exp::ExperimentOptions opt = BenchOptions();
  EXPECT_EQ(opt.seed, 42u);
  EXPECT_EQ(opt.pool.nn_epochs, 6u);
  EXPECT_EQ(opt.eadrl.max_episodes, 40u);
  EXPECT_EQ(opt.eadrl.max_iterations, 60u);
}

TEST_F(BenchKnobTest, ZeroLengthMeansEachDatasetsDefaultLength) {
  Set("EADRL_BENCH_LENGTH", "0");
  ASSERT_EQ(BenchLength(), 0u);
  const auto series = ts::MakeDataset(2, BenchSeed(), BenchLength());
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), ts::GetDatasetSpec(2)->default_length);
}

TEST_F(BenchKnobTest, ZeroSeedIsSeedZero) {
  Set("EADRL_BENCH_SEED", "0");
  EXPECT_EQ(BenchSeed(), 0u);
  EXPECT_EQ(BenchOptions().seed, 0u);
}

TEST_F(BenchKnobTest, WellFormedValuesOverride) {
  Set("EADRL_BENCH_LENGTH", "1200");
  Set("EADRL_BENCH_SEED", "7");
  Set("EADRL_BENCH_EPISODES", "100");
  Set("EADRL_BENCH_NN_EPOCHS", "3");
  Set("EADRL_BENCH_ITERATIONS", "9");
  EXPECT_EQ(BenchLength(), 1200u);
  EXPECT_EQ(BenchSeed(), 7u);
  const exp::ExperimentOptions opt = BenchOptions();
  EXPECT_EQ(opt.pool.nn_epochs, 3u);
  EXPECT_EQ(opt.eadrl.max_episodes, 100u);
  EXPECT_EQ(opt.eadrl.max_iterations, 9u);
}

TEST_F(BenchKnobTest, MalformedValuesFallBack) {
  for (const char* bad : {"", "abc", "-5", "12x", " 3", "1.5"}) {
    Set("EADRL_BENCH_LENGTH", bad);
    Set("EADRL_BENCH_SEED", bad);
    EXPECT_EQ(BenchLength(), 400u) << "'" << bad << "'";
    EXPECT_EQ(BenchSeed(), 42u) << "'" << bad << "'";
  }
}

TEST_F(BenchKnobTest, ZeroCountsFallBack) {
  // EadrlCombiner aborts on max_episodes == 0, so a zero count keeps the
  // default instead.
  Set("EADRL_BENCH_EPISODES", "0");
  Set("EADRL_BENCH_NN_EPOCHS", "0");
  Set("EADRL_BENCH_ITERATIONS", "0");
  const exp::ExperimentOptions opt = BenchOptions();
  EXPECT_EQ(opt.pool.nn_epochs, 6u);
  EXPECT_EQ(opt.eadrl.max_episodes, 40u);
  EXPECT_EQ(opt.eadrl.max_iterations, 60u);
  EXPECT_EQ(EnvCount("EADRL_BENCH_EPISODES", 60), 60u);
}

}  // namespace
}  // namespace eadrl::bench
