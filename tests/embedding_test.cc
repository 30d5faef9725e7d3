#include "ts/embedding.h"

#include <gtest/gtest.h>

namespace eadrl::ts {
namespace {

TEST(EmbeddingTest, ShapesAndValues) {
  math::Vec v{1, 2, 3, 4, 5, 6};
  auto data = DelayEmbed(v, 3);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->x.rows(), 3u);
  EXPECT_EQ(data->x.cols(), 3u);
  EXPECT_EQ(data->y.size(), 3u);
  // Row 0: lags (1,2,3) -> target 4.
  EXPECT_EQ(data->x.Row(0), (math::Vec{1, 2, 3}));
  EXPECT_DOUBLE_EQ(data->y[0], 4.0);
  // Last row: lags (3,4,5) -> target 6.
  EXPECT_EQ(data->x.Row(2), (math::Vec{3, 4, 5}));
  EXPECT_DOUBLE_EQ(data->y[2], 6.0);
}

TEST(EmbeddingTest, PaperDefaultDimensionFive) {
  math::Vec v(50);
  for (size_t i = 0; i < 50; ++i) v[i] = static_cast<double>(i);
  auto data = DelayEmbed(v, 5);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->x.rows(), 45u);
  EXPECT_EQ(data->x.cols(), 5u);
}

TEST(EmbeddingTest, RejectsZeroK) {
  EXPECT_FALSE(DelayEmbed(math::Vec{1, 2, 3}, 0).ok());
}

TEST(EmbeddingTest, RejectsTooShortSeries) {
  EXPECT_FALSE(DelayEmbed(math::Vec{1, 2, 3}, 3).ok());
  EXPECT_TRUE(DelayEmbed(math::Vec{1, 2, 3, 4}, 3).ok());
}

TEST(EmbeddingTest, SeriesOverload) {
  Series s("x", {1, 2, 3, 4});
  auto data = DelayEmbed(s, 2);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->x.rows(), 2u);
}

}  // namespace
}  // namespace eadrl::ts
