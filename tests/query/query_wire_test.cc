// Query wire codecs: bit-exact round trips and hostile-input hardening.

#include "query/wire.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "net/wire.h"
#include "query/query.h"

namespace condensa::query {
namespace {

using condensa::linalg::Matrix;
using condensa::linalg::Vector;

Vector MakePoint(std::initializer_list<double> values) {
  Vector v(values.size());
  std::size_t i = 0;
  for (double value : values) v[i++] = value;
  return v;
}

TEST(QueryWireTest, ClassifyQueryRoundTrips) {
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.neighbors = 5;
  query.classify.points.push_back(MakePoint({1.5, -2.25, 1e-300}));
  query.classify.points.push_back(MakePoint({0.0, 3.0, -0.0}));

  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, QueryKind::kClassify);
  EXPECT_EQ(decoded->classify.neighbors, 5u);
  ASSERT_EQ(decoded->classify.points.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(decoded->classify.points[i][d],
                query.classify.points[i][d]);
    }
  }
}

TEST(QueryWireTest, AggregateQueryRoundTrips) {
  Query query;
  query.kind = QueryKind::kAggregate;
  query.aggregate.range.bounds.push_back({2, -1.0, 4.5});
  query.aggregate.range.bounds.push_back({0, 0.25, 0.75});

  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->aggregate.range.bounds.size(), 2u);
  EXPECT_EQ(decoded->aggregate.range.bounds[0].dim, 2u);
  EXPECT_EQ(decoded->aggregate.range.bounds[0].lo, -1.0);
  EXPECT_EQ(decoded->aggregate.range.bounds[1].hi, 0.75);
}

TEST(QueryWireTest, RegenerateQueryRoundTrips) {
  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.range.bounds.push_back({1, 0.0, 1.0});
  query.regenerate.seed = 0xdeadbeefcafe;
  query.regenerate.records_per_group = 17;

  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, QueryKind::kRegenerate);
  EXPECT_EQ(decoded->regenerate.seed, 0xdeadbeefcafeu);
  EXPECT_EQ(decoded->regenerate.records_per_group, 17u);
  ASSERT_EQ(decoded->regenerate.range.bounds.size(), 1u);
}

TEST(QueryWireTest, AggregateResultRoundTripsBitExactly) {
  QueryResult result;
  result.snapshot_version = 42;
  result.kind = QueryKind::kAggregate;
  result.aggregate.groups_matched = 3;
  result.aggregate.records = 99;
  result.aggregate.has_moments = true;
  result.aggregate.mean = MakePoint({1.0 / 3.0, -7.25});
  Matrix covariance(2, 2);
  covariance(0, 0) = 0.1;
  covariance(0, 1) = -0.055;
  covariance(1, 0) = -0.055;
  covariance(1, 1) = 2.5e-17;
  result.aggregate.covariance = covariance;

  auto decoded = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->snapshot_version, 42u);
  EXPECT_EQ(decoded->aggregate.groups_matched, 3u);
  EXPECT_EQ(decoded->aggregate.records, 99u);
  ASSERT_TRUE(decoded->aggregate.has_moments);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(decoded->aggregate.mean[d], result.aggregate.mean[d]);
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_EQ(decoded->aggregate.covariance(d, e), covariance(d, e));
    }
  }
}

TEST(QueryWireTest, ClassifyAndRegenerateResultsRoundTrip) {
  QueryResult classify;
  classify.snapshot_version = 7;
  classify.kind = QueryKind::kClassify;
  classify.classify.labels = {0, -1, 3};
  auto decoded = DecodeQueryResult(EncodeQueryResult(classify));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->classify.labels, (std::vector<int>{0, -1, 3}));

  QueryResult regen;
  regen.kind = QueryKind::kRegenerate;
  regen.regenerate.groups_matched = 2;
  regen.regenerate.records.push_back(MakePoint({1.0, 2.0}));
  regen.regenerate.records.push_back(MakePoint({-3.5, 0.125}));
  auto decoded_regen = DecodeQueryResult(EncodeQueryResult(regen));
  ASSERT_TRUE(decoded_regen.ok());
  ASSERT_EQ(decoded_regen->regenerate.records.size(), 2u);
  EXPECT_EQ(decoded_regen->regenerate.records[1][0], -3.5);
}

TEST(QueryWireTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeQuery("").ok());
  EXPECT_FALSE(DecodeQuery("\xff").ok());
  EXPECT_FALSE(DecodeQueryResult("short").ok());

  // Truncating a valid payload anywhere must fail cleanly, never crash
  // or over-read.
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.points.push_back(MakePoint({1.0, 2.0}));
  const std::string payload = EncodeQuery(query);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeQuery(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }

  // Trailing bytes after a complete message are also a framing error.
  EXPECT_FALSE(DecodeQuery(payload + "x").ok());
}

TEST(QueryWireTest, DecodeRejectsOversizedCounts) {
  // A payload claiming 2^32 points with only a few bytes behind it must
  // be rejected by the count-vs-remaining validation, not allocated.
  std::string hostile;
  hostile.push_back(0);  // kind = classify
  for (int i = 0; i < 8; ++i) hostile.push_back(0);  // deadline = 0.0
  for (int i = 0; i < 8; ++i) hostile.push_back(1);  // neighbors
  for (int i = 0; i < 8; ++i) hostile.push_back('\x7f');  // dim: huge
  auto decoded = DecodeQuery(hostile);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(QueryWireTest, DeadlineAndStalenessRoundTrip) {
  Query query;
  query.kind = QueryKind::kAggregate;
  query.deadline_ms = 1234.5;
  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline_ms, 1234.5);

  QueryResult result;
  result.snapshot_version = 9;
  result.staleness_ms = 0.125;
  result.kind = QueryKind::kAggregate;
  auto decoded_result = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(decoded_result.ok());
  EXPECT_EQ(decoded_result->staleness_ms, 0.125);
}

TEST(QueryWireTest, DecodeRejectsHostileDeadlineAndStaleness) {
  Query query;
  query.kind = QueryKind::kAggregate;
  query.deadline_ms = -1.0;  // negatives never come off a sane encoder
  EXPECT_FALSE(DecodeQuery(EncodeQuery(query)).ok());
  query.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DecodeQuery(EncodeQuery(query)).ok());
  // "No deadline" is spelled 0 on the wire; +inf is not a budget, while
  // the largest finite one still decodes.
  query.deadline_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(DecodeQuery(EncodeQuery(query)).status().code(),
            StatusCode::kDataLoss);
  query.deadline_ms = std::numeric_limits<double>::max();
  EXPECT_TRUE(DecodeQuery(EncodeQuery(query)).ok());

  QueryResult result;
  result.kind = QueryKind::kAggregate;
  result.staleness_ms = -0.5;
  EXPECT_FALSE(DecodeQueryResult(EncodeQueryResult(result)).ok());
}

// Corruption fuzz for both payload decoders: for a representative payload
// of every query/result kind, (a) truncate at every byte boundary, (b)
// flip every single bit, (c) saturate every byte (mutated counts, kinds,
// flags, dims). The decoder must return a Status or a (possibly wrong)
// value — never crash, over-read, or over-allocate. ASan is the judge.
class QueryWireFuzzTest : public ::testing::Test {
 protected:
  static std::vector<std::string> QueryPayloads() {
    std::vector<std::string> payloads;
    Query classify;
    classify.kind = QueryKind::kClassify;
    classify.deadline_ms = 250.0;
    classify.classify.neighbors = 3;
    classify.classify.points.push_back(MakePoint({1.0, -2.0}));
    classify.classify.points.push_back(MakePoint({0.5, 4.25}));
    payloads.push_back(EncodeQuery(classify));

    Query aggregate;
    aggregate.kind = QueryKind::kAggregate;
    aggregate.aggregate.range.bounds.push_back({0, -1.0, 1.0});
    payloads.push_back(EncodeQuery(aggregate));

    Query regenerate;
    regenerate.kind = QueryKind::kRegenerate;
    regenerate.regenerate.range.bounds.push_back({1, 0.0, 2.0});
    regenerate.regenerate.seed = 99;
    regenerate.regenerate.records_per_group = 4;
    payloads.push_back(EncodeQuery(regenerate));
    return payloads;
  }

  static std::vector<std::string> ResultPayloads() {
    std::vector<std::string> payloads;
    QueryResult classify;
    classify.kind = QueryKind::kClassify;
    classify.snapshot_version = 3;
    classify.staleness_ms = 10.0;
    classify.classify.labels = {1, -1, 2};
    payloads.push_back(EncodeQueryResult(classify));

    QueryResult aggregate;
    aggregate.kind = QueryKind::kAggregate;
    aggregate.aggregate.groups_matched = 2;
    aggregate.aggregate.records = 8;
    aggregate.aggregate.has_moments = true;
    aggregate.aggregate.mean = MakePoint({0.5, -0.5});
    Matrix cov(2, 2);
    cov(0, 0) = 1.0;
    cov(1, 1) = 2.0;
    aggregate.aggregate.covariance = cov;
    payloads.push_back(EncodeQueryResult(aggregate));

    QueryResult regen;
    regen.kind = QueryKind::kRegenerate;
    regen.regenerate.groups_matched = 1;
    regen.regenerate.records.push_back(MakePoint({3.0, 4.0}));
    payloads.push_back(EncodeQueryResult(regen));
    return payloads;
  }
};

TEST_F(QueryWireFuzzTest, QueryDecoderSurvivesCorruption) {
  for (const std::string& payload : QueryPayloads()) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(DecodeQuery(payload.substr(0, cut)).ok());
    }
    for (std::size_t byte = 0; byte < payload.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = payload;
        mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
        (void)DecodeQuery(mutated);  // must not crash; ok() may go either way
      }
      std::string saturated = payload;
      saturated[byte] = '\xff';  // worst-case counts/kinds/dims
      (void)DecodeQuery(saturated);
    }
  }
}

TEST_F(QueryWireFuzzTest, ResultDecoderSurvivesCorruption) {
  for (const std::string& payload : ResultPayloads()) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(DecodeQueryResult(payload.substr(0, cut)).ok());
    }
    for (std::size_t byte = 0; byte < payload.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = payload;
        mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
        (void)DecodeQueryResult(mutated);
      }
      std::string saturated = payload;
      saturated[byte] = '\xff';
      (void)DecodeQueryResult(saturated);
    }
  }
}

// Randomized round trips over the bit patterns the codecs must carry
// untouched: NaN payloads of both signs, ±0, subnormals, infinities and
// raw random bits; labels at INT_MIN/INT_MAX; full-width counters.
std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double RandomDouble(Rng& rng) {
  switch (rng.UniformIndex(8)) {
    case 0: return FromBits(0x7ff0000000000000ull | (rng.NextUint64() >> 12) |
                            1);  // NaN with a random payload
    case 1: return FromBits(0xfff8000000000000ull | (rng.NextUint64() >> 13));
    case 2: return rng.Bernoulli(0.5) ? 0.0 : -0.0;
    case 3: return FromBits(rng.NextUint64() & 0x800fffffffffffffull);  // subnormal
    case 4: return rng.Bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                      : -std::numeric_limits<double>::infinity();
    default: return FromBits(rng.NextUint64());
  }
}

// Deadline and staleness must be >= 0 and not NaN; -0 passes that test.
double RandomBudget(Rng& rng) {
  switch (rng.UniformIndex(4)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return FromBits(rng.NextUint64() & 0x000fffffffffffffull);
    default: return std::abs(rng.Gaussian(0.0, 1e6));
  }
}

Vector RandomPoint(std::size_t dim, Rng& rng) {
  Vector point(dim);
  for (std::size_t d = 0; d < dim; ++d) point[d] = RandomDouble(rng);
  return point;
}

int RandomLabel(Rng& rng) {
  switch (rng.UniformIndex(4)) {
    case 0: return INT_MIN;
    case 1: return INT_MAX;
    case 2: return -1;
    default: return static_cast<int>(static_cast<std::uint32_t>(rng.NextUint64()));
  }
}

void ExpectSameBits(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.dim(), want.dim());
  for (std::size_t d = 0; d < want.dim(); ++d) {
    EXPECT_EQ(Bits(got[d]), Bits(want[d]));
  }
}

void ExpectSameBounds(const RangePredicate& got, const RangePredicate& want) {
  ASSERT_EQ(got.bounds.size(), want.bounds.size());
  for (std::size_t b = 0; b < want.bounds.size(); ++b) {
    EXPECT_EQ(got.bounds[b].dim, want.bounds[b].dim);
    EXPECT_EQ(Bits(got.bounds[b].lo), Bits(want.bounds[b].lo));
    EXPECT_EQ(Bits(got.bounds[b].hi), Bits(want.bounds[b].hi));
  }
}

RangePredicate RandomRange(Rng& rng) {
  RangePredicate range;
  const std::size_t count = rng.UniformIndex(5);
  for (std::size_t b = 0; b < count; ++b) {
    range.bounds.push_back(
        {static_cast<std::size_t>(rng.NextUint64()), RandomDouble(rng),
         RandomDouble(rng)});
  }
  return range;
}

TEST(QueryWireRandomTest, QueriesRoundTripBitExactly) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    Query query;
    query.kind = static_cast<QueryKind>(rng.UniformIndex(3));
    query.deadline_ms = RandomBudget(rng);
    const std::size_t dim = rng.UniformIndex(6);
    switch (query.kind) {
      case QueryKind::kClassify: {
        query.classify.neighbors = rng.NextUint64();
        const std::size_t points = dim == 0 ? 0 : rng.UniformIndex(6);
        for (std::size_t p = 0; p < points; ++p) {
          query.classify.points.push_back(RandomPoint(dim, rng));
        }
        break;
      }
      case QueryKind::kAggregate:
        query.aggregate.range = RandomRange(rng);
        break;
      case QueryKind::kRegenerate:
        query.regenerate.range = RandomRange(rng);
        query.regenerate.seed = rng.NextUint64();
        query.regenerate.records_per_group =
            rng.UniformIndex(net::kMaxRecordsPerSubmit + 1);
        break;
    }
    auto decoded = DecodeQuery(EncodeQuery(query));
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, query.kind);
    EXPECT_EQ(Bits(decoded->deadline_ms), Bits(query.deadline_ms));
    EXPECT_EQ(decoded->classify.neighbors, query.classify.neighbors);
    ASSERT_EQ(decoded->classify.points.size(), query.classify.points.size());
    for (std::size_t p = 0; p < query.classify.points.size(); ++p) {
      ExpectSameBits(decoded->classify.points[p], query.classify.points[p]);
    }
    ExpectSameBounds(decoded->aggregate.range, query.aggregate.range);
    ExpectSameBounds(decoded->regenerate.range, query.regenerate.range);
    EXPECT_EQ(decoded->regenerate.seed, query.regenerate.seed);
    EXPECT_EQ(decoded->regenerate.records_per_group,
              query.regenerate.records_per_group);
  }
}

TEST(QueryWireRandomTest, ResultsRoundTripBitExactly) {
  Rng rng(18);
  for (int trial = 0; trial < 300; ++trial) {
    QueryResult result;
    result.kind = static_cast<QueryKind>(rng.UniformIndex(3));
    result.snapshot_version = rng.NextUint64();
    result.staleness_ms = RandomBudget(rng);
    const std::size_t dim = rng.UniformIndex(6);
    switch (result.kind) {
      case QueryKind::kClassify:
        for (std::size_t i = rng.UniformIndex(8); i > 0; --i) {
          result.classify.labels.push_back(RandomLabel(rng));
        }
        break;
      case QueryKind::kAggregate:
        result.aggregate.groups_matched = rng.NextUint64();
        result.aggregate.records = rng.NextUint64();
        result.aggregate.has_moments = rng.Bernoulli(0.75);
        if (result.aggregate.has_moments) {
          result.aggregate.mean = RandomPoint(dim, rng);
          result.aggregate.covariance = Matrix(dim, dim);
          for (std::size_t i = 0; i < dim; ++i) {
            for (std::size_t j = 0; j < dim; ++j) {
              result.aggregate.covariance(i, j) = RandomDouble(rng);
            }
          }
        }
        break;
      case QueryKind::kRegenerate: {
        result.regenerate.groups_matched = rng.NextUint64();
        const std::size_t records = dim == 0 ? 0 : rng.UniformIndex(6);
        for (std::size_t r = 0; r < records; ++r) {
          result.regenerate.records.push_back(RandomPoint(dim, rng));
        }
        break;
      }
    }
    const std::string payload = EncodeQueryResult(result);
    if (result.kind == QueryKind::kRegenerate) {
      EXPECT_EQ(payload.size(),
                RegenerateResultBytes(result.regenerate.records.size(), dim));
    }
    auto decoded = DecodeQueryResult(payload);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, result.kind);
    EXPECT_EQ(decoded->snapshot_version, result.snapshot_version);
    EXPECT_EQ(Bits(decoded->staleness_ms), Bits(result.staleness_ms));
    EXPECT_EQ(decoded->classify.labels, result.classify.labels);
    const AggregateResult& agg = decoded->aggregate;
    EXPECT_EQ(agg.groups_matched, result.aggregate.groups_matched);
    EXPECT_EQ(agg.records, result.aggregate.records);
    ASSERT_EQ(agg.has_moments, result.aggregate.has_moments);
    if (agg.has_moments) {
      ExpectSameBits(agg.mean, result.aggregate.mean);
      for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          EXPECT_EQ(Bits(agg.covariance(i, j)),
                    Bits(result.aggregate.covariance(i, j)));
        }
      }
    }
    EXPECT_EQ(decoded->regenerate.groups_matched,
              result.regenerate.groups_matched);
    ASSERT_EQ(decoded->regenerate.records.size(),
              result.regenerate.records.size());
    for (std::size_t r = 0; r < result.regenerate.records.size(); ++r) {
      ExpectSameBits(decoded->regenerate.records[r],
                     result.regenerate.records[r]);
    }
  }
}

// Each cap round-trips at its value and is refused one above it.
bool RefusedOverCap(const Status& status) {
  return status.code() == StatusCode::kDataLoss &&
         status.message().find("exceeds the cap") != std::string::npos;
}

TEST(QueryWireCapTest, ClassifyPointCountCap) {
  Query query;
  query.kind = QueryKind::kClassify;
  // Zero-dimensional points keep a cap-sized payload small.
  query.classify.points.resize(net::kMaxRecordsPerSubmit);
  auto at_cap = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->classify.points.size(), net::kMaxRecordsPerSubmit);

  query.classify.points.emplace_back();
  EXPECT_TRUE(RefusedOverCap(DecodeQuery(EncodeQuery(query)).status()));
}

TEST(QueryWireCapTest, ClassifyPointDimensionCap) {
  Query query;
  query.kind = QueryKind::kClassify;
  query.classify.points.push_back(Vector(net::kMaxWireDim));
  auto at_cap = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->classify.points[0].dim(), net::kMaxWireDim);

  query.classify.points[0] = Vector(net::kMaxWireDim + 1);
  EXPECT_TRUE(RefusedOverCap(DecodeQuery(EncodeQuery(query)).status()));
}

TEST(QueryWireCapTest, RangeBoundCountCap) {
  Query query;
  query.kind = QueryKind::kAggregate;
  query.aggregate.range.bounds.resize(net::kMaxWireDim);
  auto at_cap = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->aggregate.range.bounds.size(), net::kMaxWireDim);

  query.aggregate.range.bounds.emplace_back();
  EXPECT_TRUE(RefusedOverCap(DecodeQuery(EncodeQuery(query)).status()));
}

TEST(QueryWireCapTest, RecordsPerGroupCap) {
  Query query;
  query.kind = QueryKind::kRegenerate;
  query.regenerate.records_per_group = net::kMaxRecordsPerSubmit;
  auto at_cap = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->regenerate.records_per_group, net::kMaxRecordsPerSubmit);

  query.regenerate.records_per_group = net::kMaxRecordsPerSubmit + 1;
  EXPECT_TRUE(RefusedOverCap(DecodeQuery(EncodeQuery(query)).status()));
}

TEST(QueryWireCapTest, ClassifyLabelCountCap) {
  QueryResult result;
  result.kind = QueryKind::kClassify;
  result.classify.labels.assign(net::kMaxRecordsPerSubmit, INT_MIN);
  auto at_cap = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->classify.labels, result.classify.labels);

  result.classify.labels.push_back(INT_MAX);
  EXPECT_TRUE(
      RefusedOverCap(DecodeQueryResult(EncodeQueryResult(result)).status()));
}

TEST(QueryWireCapTest, RegenerateRecordCountCap) {
  QueryResult result;
  result.kind = QueryKind::kRegenerate;
  result.regenerate.records.resize(net::kMaxRecordsPerSubmit);
  auto at_cap = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->regenerate.records.size(), net::kMaxRecordsPerSubmit);

  result.regenerate.records.emplace_back();
  EXPECT_TRUE(
      RefusedOverCap(DecodeQueryResult(EncodeQueryResult(result)).status()));
}

TEST(QueryWireCapTest, AggregateDimensionCap) {
  // A cap-sized d x d covariance is 32 GiB, so patch the dimension field
  // of a small answer instead: at the cap the decoder passes the cap check
  // and stops at the missing bytes; one above, the cap refuses it.
  QueryResult result;
  result.kind = QueryKind::kAggregate;
  result.aggregate.has_moments = true;
  result.aggregate.mean = Vector(1);
  result.aggregate.covariance = Matrix(1, 1);
  const std::string payload = EncodeQueryResult(result);
  // version u64, staleness f64, kind u8, groups u64, records u64,
  // has_moments u8, then the dimension u64.
  constexpr std::size_t kDimOffset = 8 + 8 + 1 + 8 + 8 + 1;
  auto with_dim = [&](std::uint64_t dim) {
    std::string patched = payload;
    for (int byte = 0; byte < 8; ++byte) {
      patched[kDimOffset + byte] = static_cast<char>((dim >> (8 * byte)) & 0xff);
    }
    return DecodeQueryResult(patched).status();
  };
  EXPECT_TRUE(with_dim(1).ok());
  const Status at_cap = with_dim(net::kMaxWireDim);
  EXPECT_EQ(at_cap.code(), StatusCode::kDataLoss);
  EXPECT_NE(at_cap.message().find("truncated"), std::string::npos)
      << at_cap.ToString();
  EXPECT_TRUE(RefusedOverCap(with_dim(net::kMaxWireDim + 1)));
}

TEST(QueryWireCapTest, RegenerateResultBytesIsExactAndSaturates) {
  for (std::size_t dim : {1u, 2u, 10u}) {
    for (std::size_t records : {0u, 1u, 7u}) {
      QueryResult result;
      result.kind = QueryKind::kRegenerate;
      result.regenerate.records.assign(records, Vector(dim));
      EXPECT_EQ(EncodeQueryResult(result).size(),
                RegenerateResultBytes(records, dim));
    }
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(RegenerateResultBytes(kMax, 10), kMax);
  EXPECT_EQ(RegenerateResultBytes(kMax / 8, 2), kMax);
  EXPECT_EQ(RegenerateResultBytes(kMax, 0), RegenerateResultBytes(0, 10));
}

}  // namespace
}  // namespace condensa::query
