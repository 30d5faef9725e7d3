#include "ts/scaler.h"

#include <cmath>

#include <gtest/gtest.h>

namespace eadrl::ts {
namespace {

TEST(StandardScalerTest, ZeroMeanUnitVariance) {
  StandardScaler s;
  math::Vec v{1, 2, 3, 4, 5};
  s.Fit(v);
  EXPECT_DOUBLE_EQ(s.Transform(3.0), 0.0);
  math::Vec t = s.Transform(v);
  double mean = 0.0;
  for (double x : t) mean += x;
  EXPECT_NEAR(mean / 5.0, 0.0, 1e-12);
}

TEST(StandardScalerTest, RoundTrip) {
  StandardScaler s;
  s.Fit({3, 7, 11, 2});
  for (double x : {-1.0, 3.5, 100.0}) {
    EXPECT_NEAR(s.Inverse(s.Transform(x)), x, 1e-10);
  }
}

TEST(StandardScalerTest, FromMomentsMatchesFittedScaler) {
  // The serving layer builds per-tenant scalers from stored moments rather
  // than raw history; the two construction paths must agree.
  StandardScaler fitted;
  fitted.Fit({1, 3, 5, 7});  // mean 4, sample stddev sqrt(20 / 3).
  StandardScaler direct =
      StandardScaler::FromMoments(4.0, std::sqrt(20.0 / 3.0));
  for (double x : {-2.0, 0.0, 4.0, 9.75}) {
    EXPECT_DOUBLE_EQ(direct.Transform(x), fitted.Transform(x));
    EXPECT_DOUBLE_EQ(direct.Inverse(x), fitted.Inverse(x));
  }
}

TEST(StandardScalerTest, FromMomentsRoundTripsExactlyAtTheMean) {
  StandardScaler s = StandardScaler::FromMoments(250.0, 12.5);
  EXPECT_DOUBLE_EQ(s.Transform(250.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Inverse(0.0), 250.0);
  for (double x : {-10.0, 0.5, 312.5}) {
    EXPECT_NEAR(s.Inverse(s.Transform(x)), x, 1e-9);
  }
}

TEST(StandardScalerTest, ConstantInputTransformsToZero) {
  StandardScaler s;
  s.Fit({2, 2, 2});
  EXPECT_DOUBLE_EQ(s.Transform(5.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Inverse(0.0), 2.0);
}

}  // namespace
}  // namespace eadrl::ts
