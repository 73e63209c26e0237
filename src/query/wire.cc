#include "query/wire.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace condensa::query {
namespace {

// Reuse the fabric's per-frame caps: a corrupt count or dimension must
// be rejected before it can drive allocation or per-element work.
constexpr std::uint64_t kMaxPoints = net::kMaxRecordsPerSubmit;
constexpr std::uint64_t kMaxDim = net::kMaxWireDim;
constexpr std::uint32_t kMaxBounds = static_cast<std::uint32_t>(kMaxDim);

// Fixed bytes of a regenerate result ahead of its packed records:
// snapshot_version u64 + staleness f64 + kind u8 + groups_matched u64 +
// dim u64 + count u32.
constexpr std::uint64_t kRegenerateResultOverheadBytes = 8 + 8 + 1 + 8 + 8 + 4;

void EncodeBounds(WireWriter& writer, const RangePredicate& range) {
  writer.PutCount(range.bounds.size());
  for (const RangePredicate::Bound& bound : range.bounds) {
    writer.PutU64(static_cast<std::uint64_t>(bound.dim));
    writer.PutDouble(bound.lo);
    writer.PutDouble(bound.hi);
  }
}

Status DecodeBounds(WireReader& reader, RangePredicate* range) {
  std::uint32_t count = 0;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&count));
  if (count > kMaxBounds) {
    return DataLossError("range bound count " + std::to_string(count) +
                         " exceeds the cap");
  }
  // 20 bytes per bound; check before reserving.
  if (reader.remaining() < static_cast<std::size_t>(count) * 20) {
    return DataLossError("range bounds truncated");
  }
  range->bounds.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RangePredicate::Bound bound;
    std::uint64_t dim = 0;
    CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&dim));
    CONDENSA_RETURN_IF_ERROR(reader.ReadDouble(&bound.lo));
    CONDENSA_RETURN_IF_ERROR(reader.ReadDouble(&bound.hi));
    bound.dim = static_cast<std::size_t>(dim);
    range->bounds.push_back(bound);
  }
  return OkStatus();
}

void EncodePoints(WireWriter& writer, std::uint64_t dim,
                  const std::vector<linalg::Vector>& points) {
  writer.PutU64(dim);
  writer.PutCount(points.size());
  for (const linalg::Vector& point : points) {
    for (std::size_t i = 0; i < point.dim(); ++i) {
      writer.PutDouble(point[i]);
    }
  }
}

Status DecodePoints(WireReader& reader, std::vector<linalg::Vector>* points,
                    std::size_t* dim_out) {
  std::uint64_t dim = 0;
  std::uint32_t count = 0;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&dim));
  CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&count));
  if (dim > kMaxDim) {
    return DataLossError("wire dimension " + std::to_string(dim) +
                         " exceeds the cap");
  }
  if (count > kMaxPoints) {
    return DataLossError("wire point count " + std::to_string(count) +
                         " exceeds the cap");
  }
  // count <= 2^20 and dim <= 2^16, so the product cannot overflow.
  const std::uint64_t bytes = static_cast<std::uint64_t>(count) * dim * 8;
  if (reader.remaining() < bytes) {
    return DataLossError("wire points truncated");
  }
  points->reserve(count);
  for (std::uint32_t p = 0; p < count; ++p) {
    linalg::Vector point(static_cast<std::size_t>(dim));
    for (std::uint64_t i = 0; i < dim; ++i) {
      CONDENSA_RETURN_IF_ERROR(reader.ReadDouble(&point[i]));
    }
    points->push_back(std::move(point));
  }
  *dim_out = static_cast<std::size_t>(dim);
  return OkStatus();
}

}  // namespace

std::string EncodeQuery(const Query& query) {
  WireWriter writer;
  writer.PutU8(static_cast<std::uint8_t>(query.kind));
  writer.PutDouble(query.deadline_ms);
  switch (query.kind) {
    case QueryKind::kClassify: {
      writer.PutU64(static_cast<std::uint64_t>(query.classify.neighbors));
      const std::uint64_t dim =
          query.classify.points.empty() ? 0 : query.classify.points[0].dim();
      EncodePoints(writer, dim, query.classify.points);
      break;
    }
    case QueryKind::kAggregate:
      EncodeBounds(writer, query.aggregate.range);
      break;
    case QueryKind::kRegenerate:
      EncodeBounds(writer, query.regenerate.range);
      writer.PutU64(query.regenerate.seed);
      writer.PutU64(
          static_cast<std::uint64_t>(query.regenerate.records_per_group));
      break;
  }
  return writer.Take();
}

StatusOr<Query> DecodeQuery(std::string_view payload) {
  WireReader reader(payload);
  std::uint8_t raw_kind = 0;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU8(&raw_kind));
  if (raw_kind > static_cast<std::uint8_t>(QueryKind::kRegenerate)) {
    return DataLossError("unknown query kind " + std::to_string(raw_kind));
  }
  Query query;
  query.kind = static_cast<QueryKind>(raw_kind);
  CONDENSA_RETURN_IF_ERROR(reader.ReadDouble(&query.deadline_ms));
  if (!std::isfinite(query.deadline_ms) || query.deadline_ms < 0.0) {
    return DataLossError("negative or non-finite deadline");
  }
  switch (query.kind) {
    case QueryKind::kClassify: {
      std::uint64_t neighbors = 0;
      CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&neighbors));
      query.classify.neighbors = static_cast<std::size_t>(neighbors);
      std::size_t dim = 0;
      CONDENSA_RETURN_IF_ERROR(
          DecodePoints(reader, &query.classify.points, &dim));
      break;
    }
    case QueryKind::kAggregate:
      CONDENSA_RETURN_IF_ERROR(
          DecodeBounds(reader, &query.aggregate.range));
      break;
    case QueryKind::kRegenerate: {
      CONDENSA_RETURN_IF_ERROR(
          DecodeBounds(reader, &query.regenerate.range));
      CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&query.regenerate.seed));
      std::uint64_t per_group = 0;
      CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&per_group));
      // No answer with more records than this could come back in one
      // frame, so refuse the request before it reaches the engine.
      if (per_group > kMaxPoints) {
        return DataLossError("records_per_group " + std::to_string(per_group) +
                             " exceeds the cap");
      }
      query.regenerate.records_per_group =
          static_cast<std::size_t>(per_group);
      break;
    }
  }
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return query;
}

std::string EncodeQueryResult(const QueryResult& result) {
  WireWriter writer;
  writer.PutU64(result.snapshot_version);
  writer.PutDouble(result.staleness_ms);
  writer.PutU8(static_cast<std::uint8_t>(result.kind));
  switch (result.kind) {
    case QueryKind::kClassify:
      writer.PutCount(result.classify.labels.size());
      for (int label : result.classify.labels) {
        writer.PutU64(
            static_cast<std::uint64_t>(static_cast<std::int64_t>(label)));
      }
      break;
    case QueryKind::kAggregate: {
      const AggregateResult& agg = result.aggregate;
      writer.PutU64(agg.groups_matched);
      writer.PutU64(agg.records);
      writer.PutU8(agg.has_moments ? 1 : 0);
      if (agg.has_moments) {
        const std::uint64_t dim = agg.mean.dim();
        writer.PutU64(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          writer.PutDouble(agg.mean[i]);
        }
        for (std::size_t i = 0; i < dim; ++i) {
          for (std::size_t j = 0; j < dim; ++j) {
            writer.PutDouble(agg.covariance(i, j));
          }
        }
      }
      break;
    }
    case QueryKind::kRegenerate: {
      writer.PutU64(result.regenerate.groups_matched);
      const std::uint64_t dim = result.regenerate.records.empty()
                                    ? 0
                                    : result.regenerate.records[0].dim();
      EncodePoints(writer, dim, result.regenerate.records);
      break;
    }
  }
  return writer.Take();
}

std::uint64_t RegenerateResultBytes(std::uint64_t records,
                                    std::uint64_t dim) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kRoom = kMax - kRegenerateResultOverheadBytes;
  if (records == 0 || dim == 0) return kRegenerateResultOverheadBytes;
  if (records > kRoom / 8 / dim) return kMax;
  return kRegenerateResultOverheadBytes + records * dim * 8;
}

StatusOr<QueryResult> DecodeQueryResult(std::string_view payload) {
  WireReader reader(payload);
  QueryResult result;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&result.snapshot_version));
  CONDENSA_RETURN_IF_ERROR(reader.ReadDouble(&result.staleness_ms));
  if (!(result.staleness_ms >= 0.0)) {  // rejects negatives and NaN
    return DataLossError("negative or non-finite staleness");
  }
  std::uint8_t raw_kind = 0;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU8(&raw_kind));
  if (raw_kind > static_cast<std::uint8_t>(QueryKind::kRegenerate)) {
    return DataLossError("unknown query result kind " +
                         std::to_string(raw_kind));
  }
  result.kind = static_cast<QueryKind>(raw_kind);
  switch (result.kind) {
    case QueryKind::kClassify: {
      std::uint32_t count = 0;
      CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&count));
      if (count > kMaxPoints) {
        return DataLossError("label count " + std::to_string(count) +
                             " exceeds the cap");
      }
      if (reader.remaining() < static_cast<std::size_t>(count) * 8) {
        return DataLossError("labels truncated");
      }
      result.classify.labels.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t raw = 0;
        CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&raw));
        const auto label = static_cast<std::int64_t>(raw);
        if (label < std::numeric_limits<int>::min() ||
            label > std::numeric_limits<int>::max()) {
          return DataLossError("label out of int range");
        }
        result.classify.labels.push_back(static_cast<int>(label));
      }
      break;
    }
    case QueryKind::kAggregate: {
      AggregateResult& agg = result.aggregate;
      CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&agg.groups_matched));
      CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&agg.records));
      std::uint8_t has_moments = 0;
      CONDENSA_RETURN_IF_ERROR(reader.ReadU8(&has_moments));
      if (has_moments > 1) {
        return DataLossError("bad has_moments flag");
      }
      agg.has_moments = has_moments == 1;
      if (agg.has_moments) {
        std::uint64_t dim = 0;
        CONDENSA_RETURN_IF_ERROR(reader.ReadU64(&dim));
        if (dim > kMaxDim) {
          return DataLossError("aggregate dimension exceeds the cap");
        }
        // dim + dim^2 doubles; dim <= 2^16 so no overflow.
        const std::uint64_t bytes = (dim + dim * dim) * 8;
        if (reader.remaining() < bytes) {
          return DataLossError("aggregate moments truncated");
        }
        agg.mean = linalg::Vector(static_cast<std::size_t>(dim));
        for (std::uint64_t i = 0; i < dim; ++i) {
          CONDENSA_RETURN_IF_ERROR(reader.ReadDouble(&agg.mean[i]));
        }
        agg.covariance = linalg::Matrix(static_cast<std::size_t>(dim),
                                        static_cast<std::size_t>(dim));
        for (std::uint64_t i = 0; i < dim; ++i) {
          for (std::uint64_t j = 0; j < dim; ++j) {
            CONDENSA_RETURN_IF_ERROR(
                reader.ReadDouble(&agg.covariance(i, j)));
          }
        }
      }
      break;
    }
    case QueryKind::kRegenerate: {
      CONDENSA_RETURN_IF_ERROR(
          reader.ReadU64(&result.regenerate.groups_matched));
      std::size_t dim = 0;
      CONDENSA_RETURN_IF_ERROR(
          DecodePoints(reader, &result.regenerate.records, &dim));
      break;
    }
  }
  CONDENSA_RETURN_IF_ERROR(reader.ExpectDone());
  return result;
}

}  // namespace condensa::query
