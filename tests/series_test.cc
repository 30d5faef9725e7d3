#include "ts/series.h"

#include <gtest/gtest.h>

namespace eadrl::ts {
namespace {

TEST(SeriesTest, BasicAccess) {
  Series s("test", {1, 2, 3}, "daily", 7);
  EXPECT_EQ(s.name(), "test");
  EXPECT_EQ(s.frequency(), "daily");
  EXPECT_EQ(s.seasonal_period(), 7u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(SeriesTest, SliceKeepsMetadata) {
  Series s("test", {1, 2, 3, 4, 5}, "hourly", 24);
  Series sub = s.Slice(1, 4);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub[0], 2.0);
  EXPECT_DOUBLE_EQ(sub[2], 4.0);
  EXPECT_EQ(sub.frequency(), "hourly");
  EXPECT_EQ(sub.seasonal_period(), 24u);
}

TEST(SeriesTest, SliceEmptyRange) {
  Series s("test", {1, 2, 3});
  EXPECT_EQ(s.Slice(1, 1).size(), 0u);
}

TEST(SeriesTest, PushBack) {
  Series s("test", {1.0});
  s.PushBack(2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(SplitTest, SeventyFiveTwentyFive) {
  math::Vec v(100);
  for (size_t i = 0; i < 100; ++i) v[i] = static_cast<double>(i);
  Series s("test", v);
  TrainTestSplit split = SplitTrainTest(s, 0.75);
  EXPECT_EQ(split.train.size(), 75u);
  EXPECT_EQ(split.test.size(), 25u);
  EXPECT_DOUBLE_EQ(split.train[74], 74.0);
  EXPECT_DOUBLE_EQ(split.test[0], 75.0);
}

TEST(SplitTest, ChronologicalOrderPreserved) {
  Series s("test", {5, 4, 3, 2, 1});
  TrainTestSplit split = SplitTrainTest(s, 0.6);
  EXPECT_DOUBLE_EQ(split.train[0], 5.0);
  EXPECT_DOUBLE_EQ(split.test[split.test.size() - 1], 1.0);
}

}  // namespace
}  // namespace eadrl::ts
