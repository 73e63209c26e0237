#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace condensa {
namespace {

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

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The grammar every text format reads numbers with. Rows marked false
// must leave the output untouched.
TEST(ParseDoubleTest, GrammarTable) {
  struct Row {
    const char* text;
    bool ok;
    double value;
  };
  const std::vector<Row> rows = {
      {"+1", true, 1.0},
      {" 7 ", true, 7.0},
      {"\t-2.5\r\n", true, -2.5},
      {".5", true, 0.5},
      {"1.", true, 1.0},
      {"1e3", true, 1000.0},
      {"1E+3", true, 1000.0},
      {"-0", true, -0.0},
      {"4.9406564584124654e-324", true, 4.9406564584124654e-324},
      {"2.2250738585072009e-308", true, 2.2250738585072009e-308},
      {"", false, 0.0},
      {"   ", false, 0.0},
      {"+", false, 0.0},
      {"+-1", false, 0.0},
      {"++1", false, 0.0},
      {"1e", false, 0.0},
      {"1.5x", false, 0.0},
      {"1.5 2.5", false, 0.0},
      {"1e400", false, 0.0},
      {"-1e400", false, 0.0},
      {"1e-400", false, 0.0},
      {"0x10", false, 0.0},
      {".", false, 0.0},
      {"abc", false, 0.0},
  };
  for (const Row& row : rows) {
    double v = 42.0;
    EXPECT_EQ(ParseDouble(row.text, &v), row.ok) << "\"" << row.text << "\"";
    if (row.ok) {
      EXPECT_EQ(Bits(v), Bits(row.value)) << "\"" << row.text << "\"";
    } else {
      EXPECT_EQ(v, 42.0) << "\"" << row.text << "\"";
    }
  }
  double v = 0.0;
  ASSERT_TRUE(ParseDouble("-0", &v));
  EXPECT_TRUE(std::signbit(v));
  // Non-finite spellings parse; the CSV reader rejects them itself.
  EXPECT_TRUE(ParseDouble("nan", &v));
  EXPECT_TRUE(std::isnan(v));
  EXPECT_TRUE(ParseDouble("-inf", &v));
  EXPECT_TRUE(std::isinf(v) && v < 0);
}

// glibc strtod flags every subnormal with ERANGE; these are the smallest
// subnormal and the largest one, both exactly representable.
TEST(ParseDoubleTest, ParsesSubnormals) {
  double v = 0.0;
  ASSERT_TRUE(ParseDouble("4.9406564584124654e-324", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
  ASSERT_TRUE(ParseDouble("2.2250738585072009e-308", &v));
  EXPECT_EQ(v, std::nextafter(DBL_MIN, 0.0));
}

TEST(AppendDoubleTest, WritesShortestRoundTripForm) {
  const std::vector<std::pair<double, std::string>> rows = {
      {0.1, "0.1"},       {1.0, "1"},         {-0.0, "-0"},
      {1e22, "1e+22"},    {1e-7, "1e-07"},    {123.25, "123.25"},
      {5e-324, "5e-324"}, {DBL_MAX, "1.7976931348623157e+308"},
  };
  for (const auto& [value, text] : rows) {
    std::string out = "x";
    AppendDouble(out, value);
    EXPECT_EQ(out, "x" + text);
  }
  std::string out;
  AppendDouble(out, std::numeric_limits<double>::infinity());
  out += ' ';
  AppendDouble(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "inf nan");
}

// A finite double drawn from uniformly random 64-bit patterns, so every
// exponent (subnormals included) is equally likely.
double RandomFiniteDouble(Rng& rng) {
  while (true) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) return value;
  }
}

std::string Render17g(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Randomized: AppendDouble -> ParseDouble is the identity on the bits of
// every finite double, and the %.17g form older writers produced parses
// back to the same bits.
TEST(AppendDoubleTest, RandomizedRoundTripIsBitExact) {
  std::vector<double> values = {
      0.0,      -0.0,     DBL_MAX, -DBL_MAX,     DBL_MIN,
      -DBL_MIN, DBL_TRUE_MIN,      -DBL_TRUE_MIN};
  Rng rng(20261017);
  for (int i = 0; i < 20000; ++i) values.push_back(RandomFiniteDouble(rng));
  for (double value : values) {
    std::string text;
    AppendDouble(text, value);
    double parsed = 1.0;
    ASSERT_TRUE(ParseDouble(text, &parsed)) << text;
    ASSERT_EQ(Bits(parsed), Bits(value)) << text;

    const std::string legacy = Render17g(value);
    ASSERT_TRUE(ParseDouble(legacy, &parsed)) << legacy;
    ASSERT_EQ(Bits(parsed), Bits(value)) << legacy;
    EXPECT_LE(text.size(), legacy.size()) << text << " vs " << legacy;
  }
}

TEST(NextTokenTest, WalksWhitespaceSeparatedTokens) {
  std::string_view text = "  dim 3\n\tk  4 \r\n";
  EXPECT_EQ(NextToken(&text), "dim");
  EXPECT_EQ(NextToken(&text), "3");
  EXPECT_EQ(NextToken(&text), "k");
  EXPECT_EQ(NextToken(&text), "4");
  EXPECT_EQ(NextToken(&text), "");
  EXPECT_EQ(NextToken(&text), "");
  std::string_view empty;
  EXPECT_EQ(NextToken(&empty), "");
}

TEST(NextLineTest, SplitsOffOneLineAtATime) {
  std::string_view text = "a b\n\nlast";
  EXPECT_EQ(NextLine(&text), "a b");
  EXPECT_EQ(NextLine(&text), "");
  EXPECT_EQ(NextLine(&text), "last");
  EXPECT_TRUE(text.empty());
  text = "x\n";
  EXPECT_EQ(NextLine(&text), "x");
  EXPECT_TRUE(text.empty());
}

TEST(NextFieldTest, SplitsOnTheSeparatorOnly) {
  std::string_view text = "0:-1.5: 2,";
  EXPECT_EQ(NextField(&text, ':'), "0");
  EXPECT_EQ(NextField(&text, ':'), "-1.5");
  EXPECT_EQ(NextField(&text, ':'), " 2,");
  EXPECT_TRUE(text.empty());
  text = "a,,b";
  EXPECT_EQ(NextField(&text, ','), "a");
  EXPECT_EQ(NextField(&text, ','), "");
  EXPECT_EQ(NextField(&text, ','), "b");
  EXPECT_EQ(NextField(&text, ','), "");
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
