// Anonymization backends (docs/backends.md).
//
// Every scheme in the group-then-summarize family — the paper's
// condensation, MDAV-style microaggregation, hybrid schemes — is two
// choices: how raw records are partitioned into groups of >= k and
// folded into (Fs, Sc, n) aggregates, and how release records are
// synthesized from one aggregate. A Backend is one immutable record of
// both, plus the identity stamped into every group set it builds (and so
// into serialized pools and checkpoints).
//
// The built-in records are one fixed table in backend.cc: "condensation"
// (the paper), "mdav" and "mdav-eigen" (core/mdav.h). Configs name the
// backend that builds their groups with a `const Backend*` that defaults
// to &CondensationBackend(); FindBackend maps the ids that arrive from
// outside the program (--backend, a fabric Hello) onto records. How a
// group set is regenerated is never configured: its own stamp names the
// record (StampedBackend), whose sampler RegenerateGroup
// (core/anonymizer.h) runs.

#ifndef CONDENSA_CORE_BACKEND_H_
#define CONDENSA_CORE_BACKEND_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "linalg/vector.h"

namespace condensa::core {

struct Backend {
  // Partitions `points` into groups of >= k records and returns their
  // aggregates. Must be deterministic for a fixed Rng state and draw
  // randomness only through `rng`. Fails on empty input, k == 0, fewer
  // than k records, or inconsistent dimensions.
  using BuildFn = std::function<StatusOr<CondensedGroupSet>(
      const std::vector<linalg::Vector>& points, std::size_t k, Rng& rng)>;
  // Synthesizes `count` release records from one group's aggregate,
  // drawing randomness only from `rng` (the caller splits one substream
  // per group, in group order, so releases are reproducible from the
  // seed at any thread count).
  using SampleFn = std::function<StatusOr<std::vector<linalg::Vector>>(
      const GroupStatistics& group, std::size_t count, Rng& rng)>;

  // Table key, stamped into every group set this backend builds.
  std::string id;
  // Bumped when the backend's output for a fixed seed changes; a
  // checkpoint stamped with another version refuses to load.
  int version = 1;
  // One-line description for --help listings.
  std::string summary = {};
  // Group construction. Never null.
  BuildFn build = nullptr;
  // Regeneration; null means the eigendecomposition sampler of
  // core/anonymizer.h.
  SampleFn sample = nullptr;

  // Runs `build` and stamps (id, version) on the result. The engine, the
  // dynamic bootstrap and sharded partitions all build groups through
  // this.
  StatusOr<CondensedGroupSet> Build(const std::vector<linalg::Vector>& points,
                                    std::size_t k, Rng& rng) const;
};

// The paper's condensation, id "condensation" version 1: construction is
// StaticCondenser with default options (core/static_condenser.h) and
// regeneration is the eigendecomposition sampler. The default of every
// config.
const Backend& CondensationBackend();

// The built-in record with this id; NotFound naming the id and listing
// every id otherwise.
StatusOr<const Backend*> FindBackend(const std::string& id);

// The ids of the built-in records, sorted.
std::vector<std::string> BackendIds();

// The record that regenerates `groups`: the one its (id, version) stamp
// names. NotFound, as FindBackend, for an unknown id; FailedPrecondition
// naming both versions when the stamp's version is not the record's.
StatusOr<const Backend*> StampedBackend(const CondensedGroupSet& groups);

}  // namespace condensa::core

#endif  // CONDENSA_CORE_BACKEND_H_
