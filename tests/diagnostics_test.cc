#include "ts/diagnostics.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eadrl::ts {
namespace {

TEST(SeasonalPeriodTest, FindsSinePeriod) {
  math::Vec v(600);
  Rng rng(8);
  for (size_t t = 0; t < v.size(); ++t) {
    v[t] = std::sin(2.0 * M_PI * static_cast<double>(t) / 24.0) +
           rng.Normal(0, 0.2);
  }
  size_t period = EstimateSeasonalPeriod(v);
  // The ACF peaks at the period or a multiple; accept 24 or 48.
  EXPECT_TRUE(period == 24 || period == 48) << period;
}

TEST(SeasonalPeriodTest, ZeroForWhiteNoise) {
  Rng rng(9);
  math::Vec v(600);
  for (double& x : v) x = rng.Normal(0, 1);
  EXPECT_EQ(EstimateSeasonalPeriod(v), 0u);
}

}  // namespace
}  // namespace eadrl::ts
