// String-keyed registry of anonymization backend records (core/backend.h).
//
// Ids that reach the program from outside — a --backend flag, the stamp
// `generate` reads from a pools file, the backend id in a fabric Hello —
// resolve to records here; code that already holds a record passes its
// pointer and never looks an id up.
//
// The global registry is constructed on first use with the built-in
// records ("condensation", "mdav", "mdav-eigen"); additional backends
// may be registered at startup, before any concurrent lookups. Lookups
// of an unknown id fail with a NotFound Status that lists every
// registered id, which the CLI surfaces verbatim (exit 2).

#ifndef CONDENSA_BACKEND_REGISTRY_H_
#define CONDENSA_BACKEND_REGISTRY_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/backend.h"

namespace condensa::backend {

class Registry {
 public:
  // The process-wide registry, holding the built-ins. Register() calls
  // must happen before concurrent Get()/Ids() use (no internal locking —
  // registration is a startup activity).
  static Registry& Global();

  // Adds `backend`, which must outlive the registry (a function-local
  // static, like the built-ins). The id must be non-empty and not yet
  // taken (CHECK).
  void Register(const core::Backend& backend);

  // The record registered under `id` (for "condensation",
  // &core::CondensationBackend()); NotFound naming the available ids
  // otherwise.
  StatusOr<const core::Backend*> Get(const std::string& id) const;

  // Registered ids in sorted order.
  std::vector<std::string> Ids() const;

  // The sorted ids joined with ", " — for help text and error messages.
  std::string IdList() const;

 private:
  Registry();

  std::map<std::string, const core::Backend*> backends_;
};

}  // namespace condensa::backend

#endif  // CONDENSA_BACKEND_REGISTRY_H_
