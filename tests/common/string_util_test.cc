#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>

namespace condensa {
namespace {

TEST(SplitTest, BasicCommaSplit) {
  std::vector<std::string> parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  std::vector<std::string> parts = Split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(SplitTest, EmptyStringYieldsOneEmptyField) {
  std::vector<std::string> parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StripWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t x \r\n"), "x");
  EXPECT_EQ(StripWhitespace("nochange"), "nochange");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble("  7 ", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ParseDoubleTest, RejectsMalformedInput) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("1.5 2.5", &v));
}

TEST(ParseIntTest, ParsesValidIntegers) {
  int v = 0;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-9", &v));
  EXPECT_EQ(v, -9);
  EXPECT_TRUE(ParseInt(" 0 ", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseIntTest, RejectsMalformedInput) {
  int v = 0;
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("3.5", &v));
  EXPECT_FALSE(ParseInt("seven", &v));
  EXPECT_FALSE(ParseInt("99999999999999999999", &v));
}

TEST(ParseSizeTest, ParsesTheFullSizeRange) {
  std::size_t v = 0;
  EXPECT_TRUE(ParseSize("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseSize(" 2147483648 ", &v));
  EXPECT_EQ(v, std::size_t{1} << 31);
  EXPECT_TRUE(ParseSize("9007199254740993", &v));
  EXPECT_EQ(v, (std::size_t{1} << 53) + 1);
  EXPECT_TRUE(ParseSize("18446744073709551615", &v));
  EXPECT_EQ(v, std::numeric_limits<std::size_t>::max());
}

TEST(ParseSizeTest, RejectsSignsMalformedInputAndOverflow) {
  std::size_t v = 7;
  EXPECT_FALSE(ParseSize("", &v));
  EXPECT_FALSE(ParseSize("-1", &v));
  EXPECT_FALSE(ParseSize("+1", &v));
  EXPECT_FALSE(ParseSize("1.0", &v));
  EXPECT_FALSE(ParseSize("12ab", &v));
  EXPECT_FALSE(ParseSize("18446744073709551616", &v));
  EXPECT_EQ(v, 7u);
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StartsWithTest, MatchesPrefixes) {
  EXPECT_TRUE(StartsWith("condensa", "con"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("abc", "abcd"));
  EXPECT_FALSE(StartsWith("abc", "b"));
}

TEST(FormatDoubleTest, RespectsPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace condensa
