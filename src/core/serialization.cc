#include "core/serialization.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/string_util.h"

namespace condensa::core {
namespace {

// v2 magics end in a newline so `head -c` of a file names its format.
constexpr std::string_view kGroupsMagic = "condensa-groups v2\n";
constexpr std::string_view kPoolsMagic = "condensa-pools v2\n";
// The v1 text forms, still read (and, for group sets, still written for
// the fabric's FinishResult frame).
constexpr std::string_view kGroupsMagicV1 = "condensa-groups v1";
constexpr std::string_view kPoolsMagicV1 = "condensa-pools v1";
constexpr char kPoolHeader[] = "pool label ";

// Bytes of a group-set section before its groups: dim, k, the backend
// id's length prefix, the backend version and the group count.
constexpr std::size_t kSectionHeaderBytes = 4 + 8 + 4 + 4 + 8;
// Bytes a v2 pool takes at least: label, splits and a section header.
constexpr std::size_t kMinPoolBytes = 4 + 8 + kSectionHeaderBytes;

// Token readers over a document cursor (see NextToken): each consumes
// one whitespace-separated token and fails when it is missing or is not
// the expected keyword or number.
bool NextKeyword(std::string_view* text, std::string_view keyword) {
  return NextToken(text) == keyword;
}

bool NextDouble(std::string_view* text, double* value) {
  return ParseDouble(NextToken(text), value);
}

bool NextSize(std::string_view* text, std::size_t* value) {
  return ParseSize(NextToken(text), value);
}

// Whether `count` groups of dimension `dim` fit in `bytes`, checked
// before any allocation. Counted in 8-byte words no product overflows:
// past 2^32 dimensions not even one group fits in any file.
bool GroupsFit(std::uint64_t count, std::size_t dim, std::size_t bytes) {
  if (dim > std::numeric_limits<std::uint32_t>::max()) return count == 0;
  const std::uint64_t words =
      1 + std::uint64_t{dim} + std::uint64_t{dim} * (dim + 1) / 2;
  return count <= bytes / 8 / words;
}

// Bytes PutGroupSet writes for `groups`.
std::size_t GroupSetBytes(const CondensedGroupSet& groups) {
  return kSectionHeaderBytes + groups.backend_id().size() +
         groups.num_groups() * GroupBytes(groups.dim());
}

StatusOr<CondensedGroupSet> DeserializeGroupSetV1(std::string_view text) {
  std::string_view rest = text;
  if (rest.empty() || StripWhitespace(NextLine(&rest)) != kGroupsMagicV1) {
    return InvalidArgumentError("missing condensa-groups v1 header");
  }

  std::size_t dim = 0, k = 0, num_groups = 0;
  if (!NextKeyword(&rest, "dim") || !NextSize(&rest, &dim) ||
      !NextKeyword(&rest, "k") || !NextSize(&rest, &k) ||
      !NextKeyword(&rest, "groups") || !NextSize(&rest, &num_groups)) {
    return DataLossError("malformed group-set header line");
  }
  if (dim == 0) {
    return InvalidArgumentError("group set dimension must be positive");
  }
  // Every group carries at least dim values, so a dim (or group count)
  // larger than the document itself is corruption — reject it before it
  // can drive a giant allocation below.
  if (dim > text.size() || num_groups > text.size()) {
    return DataLossError("group-set header counts exceed document size");
  }

  CondensedGroupSet groups(dim, k);

  // Optional backend annotation between the header and the first group.
  // Default-backend writers omit it, so absence means "condensation".
  if (std::string_view peek = rest; NextKeyword(&peek, "backend")) {
    const std::string_view id = NextToken(&peek);
    std::size_t version = 0;
    if (id.empty() || !NextSize(&peek, &version) || version == 0 ||
        version > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
      return DataLossError("malformed backend annotation line");
    }
    groups.SetBackend(std::string(id), static_cast<int>(version));
    rest = peek;
  }

  for (std::size_t g = 0; g < num_groups; ++g) {
    std::size_t count = 0;
    if (!NextKeyword(&rest, "group") || !NextKeyword(&rest, "n") ||
        !NextSize(&rest, &count) || count == 0) {
      return DataLossError("malformed group header in group " +
                           std::to_string(g));
    }

    linalg::Vector fs(dim);
    if (!NextKeyword(&rest, "fs")) {
      return DataLossError("missing fs section in group " +
                           std::to_string(g));
    }
    for (std::size_t j = 0; j < dim; ++j) {
      if (!NextDouble(&rest, &fs[j])) {
        return DataLossError("truncated fs values in group " +
                             std::to_string(g));
      }
      // A non-finite sum leaves the group without a mean or covariance
      // (and a NaN centroid would fall inside every query range).
      if (!std::isfinite(fs[j])) {
        return DataLossError("non-finite fs value in group " +
                             std::to_string(g));
      }
    }

    linalg::Matrix sc(dim, dim);
    if (!NextKeyword(&rest, "sc")) {
      return DataLossError("missing sc section in group " +
                           std::to_string(g));
    }
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = i; j < dim; ++j) {
        double value = 0.0;
        if (!NextDouble(&rest, &value)) {
          return DataLossError("truncated sc values in group " +
                               std::to_string(g));
        }
        if (!std::isfinite(value)) {
          return DataLossError("non-finite sc value in group " +
                               std::to_string(g));
        }
        sc(i, j) = value;
        sc(j, i) = value;
      }
    }

    // Fs and Sc are the stored representation; reconstitute verbatim so
    // deserialized aggregates are bit-identical to the serialized ones.
    groups.AddGroup(
        GroupStatistics::FromRawSums(count, std::move(fs), std::move(sc)));
  }

  // Reject trailing garbage (ignoring whitespace).
  if (!NextToken(&rest).empty()) {
    return DataLossError("trailing content after final group");
  }
  return groups;
}

StatusOr<CondensedGroupSet> DeserializeGroupSetV2(std::string_view bytes) {
  CONDENSA_ASSIGN_OR_RETURN(
      std::string_view body,
      CheckTrailer(bytes, kGroupsMagic, "group-set file"));
  WireReader in(body);
  CONDENSA_ASSIGN_OR_RETURN(CondensedGroupSet groups, ReadGroupSet(in));
  CONDENSA_RETURN_IF_ERROR(in.ExpectDone());
  return groups;
}

// Appends pool `p` to `pools` after the checks both pools readers make:
// its groups live in the pools' condensed dimension, and every pool of
// one release is built by one backend (a mixed file is hand-edited or
// corrupt).
Status AddPool(CondensedPools& pools, int label, std::size_t splits,
               CondensedGroupSet groups, std::size_t p) {
  if (groups.dim() != pools.CondensedDim()) {
    return InvalidArgumentError("pool dimension mismatch in pool " +
                                std::to_string(p));
  }
  if (!pools.pools.empty() &&
      (groups.backend_id() != pools.pools.front().groups.backend_id() ||
       groups.backend_version() !=
           pools.pools.front().groups.backend_version())) {
    return InvalidArgumentError(
        "pool " + std::to_string(p) + " was built by backend '" +
        groups.backend_id() + "' but pool 0 by '" +
        pools.pools.front().groups.backend_id() +
        "'; pools of one release must share a backend");
  }
  pools.pools.push_back(CondensedPools::Pool{label, splits, std::move(groups)});
  return OkStatus();
}

StatusOr<CondensedPools> DeserializePoolsV1(std::string_view text) {
  std::string_view rest = text;
  if (rest.empty() || StripWhitespace(NextLine(&rest)) != kPoolsMagicV1) {
    return InvalidArgumentError("missing condensa-pools v1 header");
  }
  int task_value = 0;
  std::size_t feature_dim = 0, pool_count = 0;
  if (!NextKeyword(&rest, "task") || !ParseInt(NextToken(&rest), &task_value) ||
      task_value < 0 || task_value > 2 ||
      !NextKeyword(&rest, "feature_dim") || !NextSize(&rest, &feature_dim) ||
      !NextKeyword(&rest, "pools") || !NextSize(&rest, &pool_count)) {
    return DataLossError("malformed pools header line");
  }
  if (feature_dim == 0) {
    return InvalidArgumentError("feature dimension must be positive");
  }
  // Consume the rest of the header line.
  NextLine(&rest);

  CondensedPools pools;
  pools.task = static_cast<data::TaskType>(task_value);
  pools.feature_dim = feature_dim;

  // The remainder is `pool label L splits S\n<group set>` repeated; split
  // on the pool header lines and hand each body to the group-set reader.
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < pool_count; ++p) {
    std::size_t header_pos = rest.find(kPoolHeader, cursor);
    if (header_pos == std::string_view::npos) {
      return DataLossError("missing pool " + std::to_string(p));
    }
    std::size_t line_end = rest.find('\n', header_pos);
    if (line_end == std::string_view::npos) {
      return DataLossError("truncated pool header");
    }
    std::string_view header =
        rest.substr(header_pos + strlen(kPoolHeader),
                    line_end - header_pos - strlen(kPoolHeader));
    int label = 0;
    std::size_t splits = 0;
    if (!ParseInt(NextToken(&header), &label) ||
        !NextKeyword(&header, "splits") || !NextSize(&header, &splits)) {
      return DataLossError("malformed pool header in pool " +
                           std::to_string(p));
    }
    std::size_t body_begin = line_end + 1;
    std::size_t body_end = rest.find(kPoolHeader, body_begin);
    if (body_end == std::string_view::npos) {
      body_end = rest.size();
    }
    CONDENSA_ASSIGN_OR_RETURN(
        CondensedGroupSet groups,
        DeserializeGroupSetV1(rest.substr(body_begin, body_end - body_begin)));
    CONDENSA_RETURN_IF_ERROR(
        AddPool(pools, label, splits, std::move(groups), p));
    cursor = body_end;
  }
  if (rest.find(kPoolHeader, cursor) != std::string_view::npos) {
    return DataLossError("more pools than the header declares");
  }
  return pools;
}

StatusOr<CondensedPools> DeserializePoolsV2(std::string_view bytes) {
  CONDENSA_ASSIGN_OR_RETURN(std::string_view body,
                            CheckTrailer(bytes, kPoolsMagic, "pools file"));
  WireReader in(body);
  std::uint8_t task = 0;
  std::uint32_t feature_dim = 0;
  std::uint64_t pool_count = 0;
  CONDENSA_RETURN_IF_ERROR(in.ReadU8(&task));
  CONDENSA_RETURN_IF_ERROR(in.ReadU32(&feature_dim));
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&pool_count));
  if (task > 2 || feature_dim == 0) {
    return DataLossError("malformed pools header");
  }
  if (pool_count > in.remaining() / kMinPoolBytes) {
    return DataLossError("pool count exceeds the bytes present");
  }
  CondensedPools pools;
  pools.task = static_cast<data::TaskType>(task);
  pools.feature_dim = feature_dim;
  for (std::size_t p = 0; p < pool_count; ++p) {
    std::uint32_t label = 0;
    std::uint64_t splits = 0;
    CONDENSA_RETURN_IF_ERROR(in.ReadU32(&label));
    CONDENSA_RETURN_IF_ERROR(in.ReadU64(&splits));
    CONDENSA_ASSIGN_OR_RETURN(CondensedGroupSet groups, ReadGroupSet(in));
    CONDENSA_RETURN_IF_ERROR(AddPool(pools, static_cast<std::int32_t>(label),
                                     splits, std::move(groups), p));
  }
  CONDENSA_RETURN_IF_ERROR(in.ExpectDone());
  return pools;
}

}  // namespace

std::size_t GroupBytes(std::size_t dim) {
  return 8 * (1 + dim + dim * (dim + 1) / 2);
}

void PutGroup(WireWriter& out, const GroupStatistics& group) {
  const std::size_t d = group.dim();
  out.PutU64(group.count());
  for (std::size_t j = 0; j < d; ++j) {
    out.PutDouble(group.first_order()[j]);
  }
  // Upper triangle including the diagonal; Sc is symmetric.
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      out.PutDouble(group.second_order()(i, j));
    }
  }
}

StatusOr<GroupStatistics> ReadGroup(WireReader& in, std::size_t dim,
                                    std::size_t g) {
  if (!GroupsFit(1, dim, in.remaining())) {
    return DataLossError("group " + std::to_string(g) +
                         " exceeds the bytes present");
  }
  std::uint64_t count = 0;
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&count));
  if (count == 0) {
    return DataLossError("empty group " + std::to_string(g));
  }
  linalg::Vector fs(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    CONDENSA_RETURN_IF_ERROR(in.ReadDouble(&fs[j]));
    if (!std::isfinite(fs[j])) {
      return DataLossError("non-finite fs value in group " +
                           std::to_string(g));
    }
  }
  linalg::Matrix sc(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = i; j < dim; ++j) {
      double value = 0.0;
      CONDENSA_RETURN_IF_ERROR(in.ReadDouble(&value));
      if (!std::isfinite(value)) {
        return DataLossError("non-finite sc value in group " +
                             std::to_string(g));
      }
      sc(i, j) = value;
      sc(j, i) = value;
    }
  }
  return GroupStatistics::FromRawSums(count, std::move(fs), std::move(sc));
}

void PutGroupSet(WireWriter& out, const CondensedGroupSet& groups) {
  out.PutCount(groups.dim());
  out.PutU64(groups.indistinguishability_level());
  out.PutString(groups.backend_id());
  out.PutU32(static_cast<std::uint32_t>(groups.backend_version()));
  out.PutU64(groups.num_groups());
  for (const GroupStatistics& group : groups.groups()) {
    PutGroup(out, group);
  }
}

StatusOr<CondensedGroupSet> ReadGroupSet(WireReader& in) {
  std::uint32_t dim = 0, version = 0;
  std::uint64_t k = 0, num_groups = 0;
  std::string backend;
  CONDENSA_RETURN_IF_ERROR(in.ReadU32(&dim));
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&k));
  CONDENSA_RETURN_IF_ERROR(in.ReadString(&backend));
  CONDENSA_RETURN_IF_ERROR(in.ReadU32(&version));
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&num_groups));
  if (dim == 0 || backend.empty() || version == 0 ||
      version > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
    return DataLossError("malformed group-set header");
  }
  if (!GroupsFit(num_groups, dim, in.remaining())) {
    return DataLossError("group count exceeds the bytes present");
  }
  CondensedGroupSet groups(dim, k);
  groups.SetBackend(std::move(backend), static_cast<int>(version));
  for (std::size_t g = 0; g < num_groups; ++g) {
    CONDENSA_ASSIGN_OR_RETURN(GroupStatistics group, ReadGroup(in, dim, g));
    groups.AddGroup(std::move(group));
  }
  return groups;
}

void PutTrailer(WireWriter& out) {
  const std::uint32_t crc = Crc32(out.buffer());
  out.PutU64(out.size());
  out.PutU32(crc);
}

StatusOr<std::string_view> CheckTrailer(std::string_view file,
                                        std::string_view magic,
                                        std::string_view what) {
  if (!StartsWith(file, magic) || file.size() < magic.size() + kTrailerBytes) {
    return DataLossError(std::string(what) +
                         " too short for its trailer (truncated write?)");
  }
  const std::string_view body = file.substr(0, file.size() - kTrailerBytes);
  WireReader trailer(file.substr(body.size()));
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  CONDENSA_RETURN_IF_ERROR(trailer.ReadU64(&length));
  CONDENSA_RETURN_IF_ERROR(trailer.ReadU32(&crc));
  if (length != body.size()) {
    return DataLossError(std::string(what) +
                         " trailer length disagrees with the file "
                         "(truncated write?)");
  }
  if (crc != Crc32(body)) {
    return DataLossError(std::string(what) + " checksum mismatch");
  }
  return body.substr(magic.size());
}

bool IsBinaryStatisticsFile(std::string_view bytes) {
  return StartsWith(bytes, kPoolsMagic) || StartsWith(bytes, kGroupsMagic);
}

std::string SerializeGroupSet(const CondensedGroupSet& groups) {
  std::string out(kGroupsMagicV1);
  out += "\ndim ";
  out += std::to_string(groups.dim());
  out += " k ";
  out += std::to_string(groups.indistinguishability_level());
  out += " groups ";
  out += std::to_string(groups.num_groups());
  out += '\n';
  // Backend annotation, written only for non-default backends so a
  // default-backend document is byte-identical to the pre-backend v1
  // format (absent = condensation; see docs/backends.md).
  if (groups.backend_id() != CondensedGroupSet::kDefaultBackendId ||
      groups.backend_version() != 1) {
    out += "backend ";
    out += groups.backend_id();
    out += ' ';
    out += std::to_string(groups.backend_version());
    out += '\n';
  }

  const std::size_t d = groups.dim();
  for (const GroupStatistics& group : groups.groups()) {
    out += "group n ";
    out += std::to_string(group.count());
    out += "\nfs";
    for (std::size_t j = 0; j < d; ++j) {
      out += ' ';
      AppendDouble(out, group.first_order()[j]);
    }
    out += "\nsc";
    // Upper triangle including the diagonal; Sc is symmetric.
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i; j < d; ++j) {
        out += ' ';
        AppendDouble(out, group.second_order()(i, j));
      }
    }
    out += '\n';
  }
  return out;
}

std::string SerializeGroupSetBinary(const CondensedGroupSet& groups) {
  WireWriter out;
  out.Reserve(kGroupsMagic.size() + GroupSetBytes(groups) + kTrailerBytes);
  out.PutBytes(kGroupsMagic);
  PutGroupSet(out, groups);
  PutTrailer(out);
  return out.Take();
}

StatusOr<CondensedGroupSet> DeserializeGroupSet(std::string_view bytes) {
  if (StartsWith(bytes, kGroupsMagic)) {
    return DeserializeGroupSetV2(bytes);
  }
  return DeserializeGroupSetV1(bytes);
}

std::string SerializePools(const CondensedPools& pools) {
  std::size_t bytes = kPoolsMagic.size() + 1 + 4 + 8 + kTrailerBytes;
  for (const CondensedPools::Pool& pool : pools.pools) {
    bytes += 4 + 8 + GroupSetBytes(pool.groups);
  }
  WireWriter out;
  out.Reserve(bytes);
  out.PutBytes(kPoolsMagic);
  out.PutU8(static_cast<std::uint8_t>(pools.task));
  out.PutCount(pools.feature_dim);
  out.PutU64(pools.pools.size());
  for (const CondensedPools::Pool& pool : pools.pools) {
    out.PutU32(static_cast<std::uint32_t>(pool.label));
    out.PutU64(pool.splits);
    PutGroupSet(out, pool.groups);
  }
  PutTrailer(out);
  return out.Take();
}

StatusOr<CondensedPools> DeserializePools(std::string_view bytes) {
  if (StartsWith(bytes, kPoolsMagic)) {
    return DeserializePoolsV2(bytes);
  }
  return DeserializePoolsV1(bytes);
}

// Both Save entry points commit through WriteFileAtomic: a crash (or an
// armed failpoint) mid-save can never corrupt an existing file, and short
// writes surface as kDataLoss naming the path.
Status SavePools(const CondensedPools& pools, const std::string& path) {
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("serialization.write"));
  return WriteFileAtomic(path, SerializePools(pools));
}

StatusOr<CondensedPools> LoadPools(const std::string& path) {
  CONDENSA_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DeserializePools(bytes);
}

Status SaveGroupSet(const CondensedGroupSet& groups,
                    const std::string& path) {
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("serialization.write"));
  return WriteFileAtomic(path, SerializeGroupSetBinary(groups));
}

StatusOr<CondensedGroupSet> LoadGroupSet(const std::string& path) {
  CONDENSA_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DeserializeGroupSet(bytes);
}

}  // namespace condensa::core
