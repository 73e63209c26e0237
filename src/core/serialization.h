// Persistence for condensed group sets.
//
// In the paper's deployment model the server retains only the aggregate
// statistics H = {(Fs(G), Sc(G), n(G))}. This module serializes H to a
// versioned, human-inspectable text format so a server can checkpoint the
// structure between sessions (or hand it to another process) without ever
// materializing records. Round-tripping is exact: values are written in
// their shortest round-trip form (AppendDouble in common/string_util.h),
// which parses back to every double bit-for-bit; the readers also take
// the longer 17-significant-digit form older writers produced.

#ifndef CONDENSA_CORE_SERIALIZATION_H_
#define CONDENSA_CORE_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"

namespace condensa::core {

// Renders `groups` in the condensa-groups v1 text format.
std::string SerializeGroupSet(const CondensedGroupSet& groups);

// Parses the text format. Fails with DataLoss on malformed input and
// InvalidArgument on inconsistent headers (wrong magic, bad counts).
StatusOr<CondensedGroupSet> DeserializeGroupSet(std::string_view text);

// File wrappers around the string forms. Saves are atomic (temp file +
// fsync + rename, see common/io.h): a crash mid-save never corrupts an
// existing file. Short writes fail with kDataLoss naming the path.
Status SaveGroupSet(const CondensedGroupSet& groups, const std::string& path);
StatusOr<CondensedGroupSet> LoadGroupSet(const std::string& path);

// Renders a whole CondensedPools (the engine's per-class retained state)
// in the condensa-pools v1 text format — a header plus one embedded
// group-set section per pool. Round-trips exactly.
std::string SerializePools(const CondensedPools& pools);
StatusOr<CondensedPools> DeserializePools(std::string_view text);
Status SavePools(const CondensedPools& pools, const std::string& path);
StatusOr<CondensedPools> LoadPools(const std::string& path);

}  // namespace condensa::core

#endif  // CONDENSA_CORE_SERIALIZATION_H_
