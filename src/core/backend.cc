#include "core/backend.h"

#include "common/check.h"
#include "core/mdav.h"
#include "core/static_condenser.h"

namespace condensa::core {
namespace {

// MDAV is deterministic; the rng stream is left untouched.
StatusOr<CondensedGroupSet> MdavBuild(
    const std::vector<linalg::Vector>& points, std::size_t k, Rng& /*rng*/) {
  return MdavBuildGroups(points, k);
}

// The built-in records, sorted by id.
const std::vector<Backend>& Table() {
  static const auto* table = new std::vector<Backend>{
      {.id = CondensedGroupSet::kDefaultBackendId,
       .version = 1,
       .summary = "paper condensation: random-seed nearest-neighbour "
                  "groups, eigendecomposition regeneration (default)",
       .build = [](const std::vector<linalg::Vector>& points, std::size_t k,
                   Rng& rng) {
         return StaticCondenser(StaticCondenserOptions{.group_size = k})
             .Condense(points, rng);
       }},
      {.id = "mdav",
       .version = 1,
       .summary = "MDAV microaggregation: farthest-pair groups, "
                  "centroid-replacement regeneration",
       .build = MdavBuild,
       // Classical microaggregation release: every member is replaced by
       // its group centroid.
       .sample = [](const GroupStatistics& group, std::size_t count,
                    Rng& /*rng*/) -> StatusOr<std::vector<linalg::Vector>> {
         return std::vector<linalg::Vector>(count, group.Centroid());
       }},
      {.id = "mdav-eigen",
       .version = 1,
       .summary = "MDAV microaggregation with variance-preserving "
                  "eigendecomposition regeneration",
       .build = MdavBuild},
  };
  return *table;
}

std::string IdList() {
  std::string joined;
  for (const Backend& backend : Table()) {
    if (!joined.empty()) joined += ", ";
    joined += backend.id;
  }
  return joined;
}

}  // namespace

StatusOr<CondensedGroupSet> Backend::Build(
    const std::vector<linalg::Vector>& points, std::size_t k,
    Rng& rng) const {
  CONDENSA_CHECK(static_cast<bool>(build));
  CONDENSA_ASSIGN_OR_RETURN(CondensedGroupSet groups, build(points, k, rng));
  groups.SetBackend(id, version);
  return groups;
}

const Backend& CondensationBackend() { return Table().front(); }

StatusOr<const Backend*> FindBackend(const std::string& id) {
  for (const Backend& backend : Table()) {
    if (backend.id == id) return &backend;
  }
  return NotFoundError("unknown backend '" + id + "'; available: " +
                       IdList());
}

std::vector<std::string> BackendIds() {
  std::vector<std::string> ids;
  for (const Backend& backend : Table()) {
    ids.push_back(backend.id);
  }
  return ids;
}

StatusOr<const Backend*> StampedBackend(const CondensedGroupSet& groups) {
  CONDENSA_ASSIGN_OR_RETURN(const Backend* backend,
                            FindBackend(groups.backend_id()));
  if (groups.backend_version() != backend->version) {
    return FailedPreconditionError(
        "groups were built by backend '" + backend->id + "' version " +
        std::to_string(groups.backend_version()) +
        " but this build provides version " +
        std::to_string(backend->version));
  }
  return backend;
}

}  // namespace condensa::core
