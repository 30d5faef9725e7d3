#include "models/naive.h"

#include <gtest/gtest.h>

#include "models/forecaster.h"

namespace eadrl::models {
namespace {

TEST(NaiveTest, PredictsLastValue) {
  NaiveForecaster model;
  ASSERT_TRUE(model.Fit(ts::Series("x", {1, 2, 3})).ok());
  EXPECT_DOUBLE_EQ(model.PredictNext(), 3.0);
  model.Observe(7.0);
  EXPECT_DOUBLE_EQ(model.PredictNext(), 7.0);
}

TEST(NaiveTest, RejectsEmpty) {
  NaiveForecaster model;
  EXPECT_FALSE(model.Fit(ts::Series("x", {})).ok());
}

TEST(RollingForecastTest, ProducesOnePredictionPerStep) {
  NaiveForecaster model;
  ASSERT_TRUE(model.Fit(ts::Series("x", {10.0})).ok());
  ts::Series eval("eval", {1, 2, 3});
  math::Vec preds = RollingForecast(&model, eval);
  // Naive: each prediction is the previously observed value.
  EXPECT_EQ(preds, (math::Vec{10, 1, 2}));
}

}  // namespace
}  // namespace eadrl::models
