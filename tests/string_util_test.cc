#include "common/string_util.h"

#include <gtest/gtest.h>

namespace eadrl {
namespace {

TEST(StrCatTest, ConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("x=", 42, ", y=", 1.5), "x=42, y=1.5");
  EXPECT_EQ(StrCat(), "");
  EXPECT_EQ(StrCat("solo"), "solo");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2, 3}, ", "), "1, 2, 3");
  EXPECT_EQ(StrJoin(std::vector<std::string>{"a"}, "-"), "a");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.125, 3), "-0.125");
  EXPECT_EQ(FormatDouble(1.005, 1), "1.0");
}

TEST(PadTest, PadLeftAndRight) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  // No truncation when already wide enough.
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
  EXPECT_EQ(PadLeft("", 2), "  ");
}

// The stamp of every default-sink log line.
TEST(Iso8601Test, FormatsUtcWithMilliseconds) {
  EXPECT_EQ(FormatIso8601Utc(0.0), "1970-01-01T00:00:00.000Z");
  EXPECT_EQ(FormatIso8601Utc(1e9 + 0.25), "2001-09-09T01:46:40.250Z");
}

}  // namespace
}  // namespace eadrl
