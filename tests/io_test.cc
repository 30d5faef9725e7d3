#include "ts/io.h"

#include <cstdio>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

namespace eadrl::ts {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(IoTest, LoadsSingleColumn) {
  std::string path = TempPath("simple.csv");
  WriteFile(path, "1.5\n2.5\n3.5\n");
  auto s = LoadCsv(path, CsvOptions{});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values(), (math::Vec{1.5, 2.5, 3.5}));
  EXPECT_EQ(s->name(), "simple.csv");
}

TEST_F(IoTest, SkipsHeaderAndSelectsColumn) {
  std::string path = TempPath("multi.csv");
  WriteFile(path, "time,value,flag\n2020-01-01,10,a\n2020-01-02,20,b\n");
  CsvOptions opt;
  opt.skip_rows = 1;
  opt.value_column = 1;
  opt.name = "demand";
  opt.seasonal_period = 24;
  auto s = LoadCsv(path, opt);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values(), (math::Vec{10, 20}));
  EXPECT_EQ(s->name(), "demand");
  EXPECT_EQ(s->seasonal_period(), 24u);
}

TEST_F(IoTest, HandlesWindowsLineEndingsAndBlankLines) {
  std::string path = TempPath("crlf.csv");
  WriteFile(path, "1\r\n\r\n2\r\n");
  auto s = LoadCsv(path, CsvOptions{});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->values(), (math::Vec{1, 2}));
}

TEST_F(IoTest, ErrorsOnMissingColumn) {
  std::string path = TempPath("short.csv");
  WriteFile(path, "1,2\n3\n");
  CsvOptions opt;
  opt.value_column = 1;
  auto s = LoadCsv(path, opt);
  EXPECT_FALSE(s.ok());
}

TEST_F(IoTest, ErrorsOnUnparsableValue) {
  std::string path = TempPath("bad.csv");
  WriteFile(path, "1\nnot-a-number\n");
  auto s = LoadCsv(path, CsvOptions{});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.status().message().find("line 2"), std::string::npos);
}

// strtod alone would accept each of these: "nan" and "inf" literally,
// "1e999" as an overflow to inf, and "12abc" as its leading 12.
TEST_F(IoTest, ErrorsOnNonFiniteAndTrailingGarbage) {
  for (const char* bad : {"nan", "inf", "1e999", "12abc"}) {
    std::string path = TempPath("nonfinite.csv");
    WriteFile(path, std::string("1\n") + bad + "\n3\n");
    auto s = LoadCsv(path, CsvOptions{});
    ASSERT_FALSE(s.ok()) << bad;
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.status().message().find("line 2"), std::string::npos)
        << s.status().message();
  }
}

TEST_F(IoTest, AcceptsWhitespaceAroundValues) {
  std::string path = TempPath("spaced.csv");
  WriteFile(path, " 1.5\n2.5 \n\t3.5\t\n");
  auto s = LoadCsv(path, CsvOptions{});
  ASSERT_TRUE(s.ok()) << s.status().message();
  EXPECT_EQ(s->values(), (math::Vec{1.5, 2.5, 3.5}));
}

TEST_F(IoTest, ErrorsOnMissingFile) {
  EXPECT_FALSE(LoadCsv(TempPath("does-not-exist.csv"), CsvOptions{}).ok());
}

TEST_F(IoTest, ErrorsOnEmptyFile) {
  std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  EXPECT_FALSE(LoadCsv(path, CsvOptions{}).ok());
}

// Every value comes back bit for bit, the ones that need more than the
// stream's default 6 significant digits included.
TEST_F(IoTest, SaveLoadRoundTrip) {
  std::string path = TempPath("roundtrip.csv");
  Series original("series-x", {1.25, -3.5, 0.0, 42.0, 1.2345678901,
                               98765.4321, 1e-300});
  ASSERT_TRUE(SaveCsv(original, path).ok());
  CsvOptions opt;
  opt.skip_rows = 1;  // SaveCsv writes the name as a header.
  auto loaded = LoadCsv(path, opt);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == original[i])
        << "value " << i << ": " << (*loaded)[i];
  }
}

// A value LoadCsv would refuse is refused at the save, before the file is
// created.
TEST_F(IoTest, SaveRefusesNonFiniteValues) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::string path = TempPath("nonfinite.csv");
    std::remove(path.c_str());
    Series series("bad", {1.0, bad, 2.0});
    Status status = SaveCsv(series, path);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_FALSE(std::ifstream(path).good()) << bad;
  }
}

}  // namespace
}  // namespace eadrl::ts
