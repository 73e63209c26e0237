// The --range grammar: "dim:lo:hi[,dim:lo:hi...]", with dim read by
// ParseSize and the endpoints by ParseDouble — the same number grammar
// as every other numeric text field (common/string_util.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "query/query.h"

namespace condensa::query {
namespace {

struct Accepted {
  const char* spec;
  std::vector<RangePredicate::Bound> bounds;
};

TEST(RangeSpecTest, AcceptsTheDecimalGrammar) {
  const double inf = std::numeric_limits<double>::infinity();
  const Accepted cases[] = {
      {"", {}},
      {"0:0.2:0.8", {{0, 0.2, 0.8}}},
      {"0:-1.5:2.5,3:0:0", {{0, -1.5, 2.5}, {3, 0.0, 0.0}}},
      {"2:1e-3:1E3", {{2, 1e-3, 1e3}}},
      {"0:+1:2", {{0, 1.0, 2.0}}},
      {"0:-inf:inf", {{0, -inf, inf}}},
      {"1:4.9e-324:1", {{1, 4.9e-324, 1.0}}},  // subnormal, exact
      {" 0 : 1 : 2 ", {{0, 1.0, 2.0}}},  // fields strip whitespace
      {"007:0:1", {{7, 0.0, 1.0}}},
      {"18446744073709551615:0:1",
       {{std::numeric_limits<std::size_t>::max(), 0.0, 1.0}}},
  };
  for (const Accepted& c : cases) {
    auto range = ParseRangeSpec(c.spec);
    ASSERT_TRUE(range.ok()) << "'" << c.spec << "': "
                            << range.status().ToString();
    ASSERT_EQ(range->bounds.size(), c.bounds.size()) << c.spec;
    for (std::size_t i = 0; i < c.bounds.size(); ++i) {
      EXPECT_EQ(range->bounds[i].dim, c.bounds[i].dim) << c.spec;
      EXPECT_EQ(range->bounds[i].lo, c.bounds[i].lo) << c.spec;
      EXPECT_EQ(range->bounds[i].hi, c.bounds[i].hi) << c.spec;
    }
  }
}

TEST(RangeSpecTest, RejectsWhatNoOtherNumericFieldAccepts) {
  const char* rejected[] = {
      // Numbers outside the shared grammar.
      "0:0x10:1",   // hex endpoint
      "0x1:0:1",    // hex dimension
      "0:1e400:1",  // overflows a double
      "0:0:1e-400", // underflows to zero
      "-1:0:1",     // signed dimension
      "+1:0:1",
      "1.5:0:1",    // fractional dimension
      "18446744073709551616:0:1",  // dimension overflows size_t
      "0:1.0.0:2",
      "0:+-1:2",
      "0:1 2:3",
      // Shape.
      "0:1",
      "0:1:",
      ":1:2",
      "0::2",
      "0:1:2:3",
      "0:1:2,",
      ",0:1:2",
      "0:1:2,,1:0:1",
      ",",
      " ",
      "0:a:b",
  };
  for (const char* spec : rejected) {
    auto range = ParseRangeSpec(spec);
    EXPECT_FALSE(range.ok()) << "'" << spec << "' parsed";
    if (!range.ok()) {
      EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument) << spec;
    }
  }
}

TEST(RangeSpecTest, NanEndpointsParseButFailValidation) {
  // ParseDouble reads "nan" like every text codec does; Validate is what
  // refuses a bound that can match nothing.
  auto range = ParseRangeSpec("0:nan:1");
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(std::isnan(range->bounds[0].lo));
  EXPECT_EQ(range->Validate(1).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace condensa::query
