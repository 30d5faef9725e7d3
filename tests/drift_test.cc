#include "ts/drift.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eadrl::ts {
namespace {

TEST(PageHinkleyTest, NoFalseAlarmOnStationaryNoise) {
  Rng rng(1);
  PageHinkley ph(/*delta=*/0.1, /*lambda=*/50.0);
  int alarms = 0;
  for (int i = 0; i < 2000; ++i) {
    if (ph.Update(rng.Normal(0.0, 1.0))) ++alarms;
  }
  EXPECT_EQ(alarms, 0);
}

TEST(PageHinkleyTest, DetectsMeanIncrease) {
  Rng rng(2);
  PageHinkley ph(/*delta=*/0.1, /*lambda=*/50.0);
  bool detected = false;
  for (int i = 0; i < 300; ++i) ph.Update(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 300 && !detected; ++i) {
    detected = ph.Update(rng.Normal(5.0, 1.0));
  }
  EXPECT_TRUE(detected);
}

TEST(PageHinkleyTest, ResetsAfterDetection) {
  Rng rng(3);
  PageHinkley ph(0.05, 10.0);
  for (int i = 0; i < 100; ++i) ph.Update(rng.Normal(0.0, 0.5));
  bool detected = false;
  for (int i = 0; i < 200 && !detected; ++i) {
    detected = ph.Update(rng.Normal(4.0, 0.5));
  }
  ASSERT_TRUE(detected);
  EXPECT_EQ(ph.num_observations(), 0u);
  EXPECT_DOUBLE_EQ(ph.cumulative(), 0.0);
}

}  // namespace
}  // namespace eadrl::ts
