#include "core/serialization.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/string_util.h"

namespace condensa::core {
namespace {

constexpr char kMagic[] = "condensa-groups v1";

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

// Appends `groups` in the condensa-groups v1 text format.
void AppendGroupSet(std::string& out, const CondensedGroupSet& groups) {
  out += kMagic;
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
}

}  // namespace

std::string SerializeGroupSet(const CondensedGroupSet& groups) {
  std::string out;
  AppendGroupSet(out, groups);
  return out;
}

StatusOr<CondensedGroupSet> DeserializeGroupSet(std::string_view text) {
  std::string_view rest = text;
  if (rest.empty() || StripWhitespace(NextLine(&rest)) != kMagic) {
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

namespace {

constexpr char kPoolsMagic[] = "condensa-pools v1";
constexpr char kPoolHeader[] = "pool label ";

}  // namespace

std::string SerializePools(const CondensedPools& pools) {
  std::string out = kPoolsMagic;
  out += "\ntask ";
  out += std::to_string(static_cast<int>(pools.task));
  out += " feature_dim ";
  out += std::to_string(pools.feature_dim);
  out += " pools ";
  out += std::to_string(pools.pools.size());
  out += '\n';
  for (const CondensedPools::Pool& pool : pools.pools) {
    out += kPoolHeader;
    out += std::to_string(pool.label);
    out += " splits ";
    out += std::to_string(pool.splits);
    out += '\n';
    AppendGroupSet(out, pool.groups);
  }
  return out;
}

StatusOr<CondensedPools> DeserializePools(std::string_view text) {
  std::string_view rest = text;
  if (rest.empty() || StripWhitespace(NextLine(&rest)) != kPoolsMagic) {
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
  // on the pool header lines and hand each body to DeserializeGroupSet.
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
        DeserializeGroupSet(rest.substr(body_begin, body_end - body_begin)));
    if (groups.dim() != pools.CondensedDim()) {
      return InvalidArgumentError("pool dimension mismatch in pool " +
                                  std::to_string(p));
    }
    // Every pool of one release is built by one backend; a mixed file is
    // hand-edited or corrupt.
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
    pools.pools.push_back(
        CondensedPools::Pool{label, splits, std::move(groups)});
    cursor = body_end;
  }
  if (rest.find(kPoolHeader, cursor) != std::string_view::npos) {
    return DataLossError("more pools than the header declares");
  }
  return pools;
}

// Both Save entry points commit through WriteFileAtomic: a crash (or an
// armed failpoint) mid-save can never corrupt an existing file, and short
// writes surface as kDataLoss naming the path.
Status SavePools(const CondensedPools& pools, const std::string& path) {
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("serialization.write"));
  return WriteFileAtomic(path, SerializePools(pools));
}

StatusOr<CondensedPools> LoadPools(const std::string& path) {
  CONDENSA_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return DeserializePools(text);
}

Status SaveGroupSet(const CondensedGroupSet& groups,
                    const std::string& path) {
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("serialization.write"));
  return WriteFileAtomic(path, SerializeGroupSet(groups));
}

StatusOr<CondensedGroupSet> LoadGroupSet(const std::string& path) {
  CONDENSA_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return DeserializeGroupSet(text);
}

}  // namespace condensa::core
