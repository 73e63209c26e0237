#include "backend/registry.h"

#include "backend/mdav.h"
#include "common/check.h"

namespace condensa::backend {

Registry::Registry() {
  Register(core::CondensationBackend());
  Register(MdavBackend());
  Register(MdavEigenBackend());
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

void Registry::Register(const core::Backend& backend) {
  CONDENSA_CHECK(!backend.id.empty());
  const bool inserted = backends_.emplace(backend.id, &backend).second;
  CONDENSA_CHECK(inserted);
}

StatusOr<const core::Backend*> Registry::Get(const std::string& id) const {
  auto it = backends_.find(id);
  if (it == backends_.end()) {
    return NotFoundError("unknown backend '" + id + "'; available: " +
                         IdList());
  }
  return it->second;
}

std::vector<std::string> Registry::Ids() const {
  std::vector<std::string> ids;
  ids.reserve(backends_.size());
  for (const auto& [id, backend] : backends_) {
    ids.push_back(id);
  }
  return ids;  // std::map iteration is already sorted
}

std::string Registry::IdList() const {
  std::string joined;
  for (const std::string& id : Ids()) {
    if (!joined.empty()) joined += ", ";
    joined += id;
  }
  return joined;
}

}  // namespace condensa::backend
