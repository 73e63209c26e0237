#include "core/backend.h"

#include "common/check.h"
#include "core/static_condenser.h"

namespace condensa::core {

StatusOr<CondensedGroupSet> Backend::Build(
    const std::vector<linalg::Vector>& points, std::size_t k,
    Rng& rng) const {
  CONDENSA_CHECK(static_cast<bool>(build));
  CONDENSA_ASSIGN_OR_RETURN(CondensedGroupSet groups, build(points, k, rng));
  groups.SetBackend(id, version);
  return groups;
}

const Backend& CondensationBackend() {
  static const Backend* backend = new Backend{
      .id = CondensedGroupSet::kDefaultBackendId,
      .version = 1,
      .summary = "paper condensation: random-seed nearest-neighbour "
                 "groups, eigendecomposition regeneration (default)",
      .build = [](const std::vector<linalg::Vector>& points, std::size_t k,
                  Rng& rng) {
        return StaticCondenser(StaticCondenserOptions{.group_size = k})
            .Condense(points, rng);
      }};
  return *backend;
}

}  // namespace condensa::core
