#include "ts/generator_kit.h"

#include <cmath>

#include <gtest/gtest.h>

#include "math/stats.h"

namespace eadrl::ts {
namespace {

TEST(GeneratorKitTest, SeasonalWavePeriodicity) {
  math::Vec w = SeasonalWave(100, 10.0, 2.0);
  for (size_t t = 0; t + 10 < w.size(); ++t) {
    EXPECT_NEAR(w[t], w[t + 10], 1e-9);
  }
  // Sampled maximum is close to (and never exceeds) the amplitude.
  EXPECT_LE(math::Max(w), 2.0 + 1e-12);
  EXPECT_GT(math::Max(w), 1.8);
}

TEST(GeneratorKitTest, LinearTrendEndpoints) {
  math::Vec t = LinearTrend(11, 5.0);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[10], 5.0);
  EXPECT_NEAR(t[5], 2.5, 1e-12);
}

TEST(GeneratorKitTest, Ar1NoiseIsAutocorrelated) {
  Rng rng(1);
  math::Vec x = Ar1Noise(5000, 0.9, 1.0, rng);
  EXPECT_GT(math::Autocorrelation(x, 1), 0.8);
  Rng rng2(1);
  math::Vec white = Ar1Noise(5000, 0.0, 1.0, rng2);
  EXPECT_LT(std::fabs(math::Autocorrelation(white, 1)), 0.1);
}

TEST(GeneratorKitTest, GeometricRandomWalkStaysPositive) {
  Rng rng(3);
  math::Vec p = GeometricRandomWalk(2000, 100.0, 0.0, 0.01, 0.9, rng);
  for (double v : p) EXPECT_GT(v, 0.0);
  EXPECT_NEAR(p[0], 100.0, 10.0);
}

TEST(GeneratorKitTest, LevelShiftsPiecewiseConstant) {
  Rng rng(4);
  math::Vec l = LevelShifts(500, 3, 5.0, rng);
  size_t changes = 0;
  for (size_t t = 1; t < l.size(); ++t) {
    if (l[t] != l[t - 1]) ++changes;
  }
  EXPECT_LE(changes, 3u);
  EXPECT_GE(changes, 1u);
}

TEST(GeneratorKitTest, SpikeTrainNonNegativeAndDecaying) {
  Rng rng(5);
  math::Vec s = SpikeTrain(1000, 0.02, 10.0, 0.8, rng);
  for (double v : s) EXPECT_GE(v, 0.0);
  EXPECT_GT(math::Max(s), 0.0);
}

TEST(GeneratorKitTest, RegimeMultiplierTwoLevels) {
  Rng rng(6);
  math::Vec r = RegimeMultiplier(1000, 1.0, 3.0, 0.05, rng);
  for (double v : r) {
    EXPECT_TRUE(v == 1.0 || v == 3.0);
  }
}

TEST(GeneratorKitTest, ClipInPlace) {
  math::Vec v{-2, 0, 5, 9};
  ClipInPlace(&v, 0.0, 5.0);
  EXPECT_EQ(v, (math::Vec{0, 0, 5, 5}));
}

TEST(GeneratorKitTest, MixSumsComponents) {
  math::Vec m = Mix({{1, 2}, {10, 20}, {100, 200}});
  EXPECT_EQ(m, (math::Vec{111, 222}));
}

}  // namespace
}  // namespace eadrl::ts
