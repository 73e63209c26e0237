// Persistence for condensed group sets.
//
// In the paper's deployment model the server retains only the aggregate
// statistics H = {(Fs(G), Sc(G), n(G))}. This module holds the one
// binary codec for them and the files built on it:
//
//   * the group codec — GroupBytes/PutGroup/ReadGroup for one group and
//     PutGroupSet/ReadGroupSet for a group set's section (its header and
//     its groups) — which the v2 checkpoint snapshot
//     (core/checkpointing.h), the v2 pools file and the v2 group-set file
//     all write;
//   * the trailer every v2 file ends in (PutTrailer/CheckTrailer): the
//     byte length of everything before it and a CRC32 of those bytes;
//   * the v1 text forms earlier builds wrote. They are still read, and
//     the condensa-groups v1 text is still written by SerializeGroupSet,
//     because the fabric's FinishResult frame carries it.
//
// docs/durability.md has the byte layouts. Round-tripping is exact:
// doubles travel as their IEEE-754 bit patterns in v2 and in their
// shortest round-trip text form in v1 (AppendDouble in
// common/string_util.h); the text readers also take the longer
// 17-significant-digit form older writers produced.

#ifndef CONDENSA_CORE_SERIALIZATION_H_
#define CONDENSA_CORE_SERIALIZATION_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/wire.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"

namespace condensa::core {

// Bytes of one encoded group: n (u64), Fs (d doubles) and the upper
// triangle of Sc row by row (d(d+1)/2 doubles).
std::size_t GroupBytes(std::size_t dim);

// Appends one group in the layout GroupBytes counts.
void PutGroup(WireWriter& out, const GroupStatistics& group);

// Reads one group of dimension `dim` written by PutGroup; `g` names it
// in errors. kDataLoss, before any allocation, when the remaining bytes
// cannot hold the group; empty groups and non-finite sums are kDataLoss
// too, as the text reader refuses them.
StatusOr<GroupStatistics> ReadGroup(WireReader& in, std::size_t dim,
                                    std::size_t g);

// Appends a group set's section: dim (u32), k (u64), backend id (u32
// length + bytes), backend version (u32), group count G (u64), then the
// G groups.
void PutGroupSet(WireWriter& out, const CondensedGroupSet& groups);

// Reads a section PutGroupSet wrote. kDataLoss for dim 0, an empty
// backend id, a version outside [1, INT_MAX], a group count the
// remaining bytes cannot hold (refused before any allocation) and every
// ReadGroup refusal.
StatusOr<CondensedGroupSet> ReadGroupSet(WireReader& in);

// The v2 trailer: appends the byte length of `out` so far (u64) and the
// CRC32 of those bytes (u32).
void PutTrailer(WireWriter& out);

// Bytes of the v2 trailer.
inline constexpr std::size_t kTrailerBytes = 8 + 4;

// Checks that `file` is `magic`, a body and a trailer PutTrailer wrote
// over the magic and the body, and returns the body. kDataLoss, naming
// `what`, when the file is too short for its magic and trailer, the
// trailer names another length (a truncated write) or the CRC32
// disagrees (corruption).
StatusOr<std::string_view> CheckTrailer(std::string_view file,
                                        std::string_view magic,
                                        std::string_view what);

// Whether `bytes` begin with the magic of a v2 pools or group-set file.
// The loaders read those with the v2 reader and anything else as v1
// text.
bool IsBinaryStatisticsFile(std::string_view bytes);

// Renders `groups` in the condensa-groups v1 text format. Only the
// fabric's FinishResult frame carries this form; files are v2.
std::string SerializeGroupSet(const CondensedGroupSet& groups);

// The condensa-groups v2 file SaveGroupSet writes: the magic
// "condensa-groups v2\n", the group-set section and the trailer.
std::string SerializeGroupSetBinary(const CondensedGroupSet& groups);

// Parses a v2 group-set file or the v1 text, picked by the leading
// magic. Fails with DataLoss on malformed or corrupt input and
// InvalidArgument on inconsistent text headers (wrong magic, dim 0).
StatusOr<CondensedGroupSet> DeserializeGroupSet(std::string_view bytes);

// File wrappers. Saves write v2 and are atomic (temp file + fsync +
// rename, see common/io.h): a crash mid-save never corrupts an existing
// file. Short writes fail with kDataLoss naming the path. Loads take v2
// and v1 files.
Status SaveGroupSet(const CondensedGroupSet& groups, const std::string& path);
StatusOr<CondensedGroupSet> LoadGroupSet(const std::string& path);

// The condensa-pools v2 file: the magic "condensa-pools v2\n", the task
// (u8), feature_dim (u32) and pool count (u64), then per pool its label
// (i32) and splits (u64) followed by its group-set section, and the
// trailer. Every pool of one file must share the backend stamp and the
// condensed dimension. Round-trips exactly.
std::string SerializePools(const CondensedPools& pools);
// Parses a v2 pools file or the condensa-pools v1 text, picked by the
// leading magic.
StatusOr<CondensedPools> DeserializePools(std::string_view bytes);
Status SavePools(const CondensedPools& pools, const std::string& path);
StatusOr<CondensedPools> LoadPools(const std::string& path);

}  // namespace condensa::core

#endif  // CONDENSA_CORE_SERIALIZATION_H_
