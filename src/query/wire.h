// Wire payloads for the query protocol (FrameTypes kQuery/kQueryResult).
//
// Lives in src/query (not src/net) so the net layer stays ignorant of
// the query model; the codecs reuse WireWriter/WireReader (common/wire.h)
// and inherit their hardening contract — every length prefix is validated
// against the bytes present (and the per-frame caps from net/wire.h)
// BEFORE any allocation, decode failures are kDataLoss, and doubles
// travel as IEEE-754 bit patterns so results round-trip bit-exactly.

#ifndef CONDENSA_QUERY_WIRE_H_
#define CONDENSA_QUERY_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "query/query.h"

namespace condensa::query {

std::string EncodeQuery(const Query& query);
StatusOr<Query> DecodeQuery(std::string_view payload);

// Every count the encoders write as a u32 is bounded by the cap its
// decoder enforces (net::kMaxRecordsPerSubmit points, labels and
// records; net::kMaxWireDim bounds), far below 2^32, so the casts never
// wrap for a message the decoder would accept.
std::string EncodeQueryResult(const QueryResult& result);

// The exact size EncodeQueryResult gives a regenerate answer of
// `records` records of `dim` coordinates, saturating at UINT64_MAX.
std::uint64_t RegenerateResultBytes(std::uint64_t records,
                                    std::uint64_t dim);
StatusOr<QueryResult> DecodeQueryResult(std::string_view payload);

}  // namespace condensa::query

#endif  // CONDENSA_QUERY_WIRE_H_
