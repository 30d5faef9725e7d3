#include "ts/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace eadrl::ts {
namespace {

TEST(MetricsTest, RmseZeroForPerfectPrediction) {
  math::Vec y{1, 2, 3};
  EXPECT_DOUBLE_EQ(Rmse(y, y), 0.0);
}

TEST(MetricsTest, RmseKnownValue) {
  math::Vec a{0, 0, 0, 0};
  math::Vec p{1, -1, 1, -1};
  EXPECT_DOUBLE_EQ(Rmse(a, p), 1.0);
}

TEST(MetricsTest, NrmseNormalizesByRange) {
  math::Vec a{0, 10};
  math::Vec p{1, 9};
  // RMSE = 1, range = 10.
  EXPECT_NEAR(Nrmse(a, p), 0.1, 1e-12);
}

TEST(MetricsTest, NrmseConstantActualFallsBackToRmse) {
  math::Vec a{5, 5};
  math::Vec p{6, 4};
  EXPECT_DOUBLE_EQ(Nrmse(a, p), Rmse(a, p));
}

}  // namespace
}  // namespace eadrl::ts
