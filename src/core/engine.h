// End-to-end anonymization facade.
//
// This is the API most users want: Dataset in, anonymized Dataset out.
// Following paper Section 3.1, classification data is condensed one class
// at a time so regenerated records keep their labels; regression data is
// condensed with the target appended as an extra dimension (preserving
// attribute-target correlations) and the target recovered from the
// regenerated record; unlabeled data is condensed as a whole.
//
// Example:
//   CondensationEngine engine({.group_size = 25,
//                              .mode = CondensationMode::kStatic});
//   Rng rng(42);
//   StatusOr<AnonymizationResult> result = engine.Anonymize(dataset, rng);
//   if (result.ok()) Train(result->anonymized);

#ifndef CONDENSA_CORE_ENGINE_H_
#define CONDENSA_CORE_ENGINE_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/anonymizer.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "data/dataset.h"

namespace condensa::core {

enum class CondensationMode {
  // Whole database available: CreateCondensedGroups (paper Fig. 1).
  kStatic = 0,
  // Stream setting: DynamicGroupMaintenance (paper Fig. 2), optionally
  // bootstrapped from a static prefix.
  kDynamic = 1,
};

struct CondensationConfig {
  // The indistinguishability level k. Must be >= 1.
  std::size_t group_size = 10;
  CondensationMode mode = CondensationMode::kStatic;
  // Dynamic mode: fraction of each record pool condensed statically before
  // the remainder is streamed (the paper's initial database D). The static
  // prefix always contains at least k records when the pool allows it.
  // 0 means pure streaming from an empty structure.
  double bootstrap_fraction = 0.25;
  // Dynamic mode: stream records in a random order (true matches the
  // i.i.d. stream the paper evaluates; false preserves input order, which
  // ablation A4 uses to measure order sensitivity).
  bool shuffle_stream = true;
  // Dynamic mode: split formula (see core/split.h). kPaperVerbatim exists
  // only for ablation A10.
  SplitRule split_rule = SplitRule::kMomentConsistent;
  // Worker threads for per-pool condensation fan-out (classification
  // condenses one pool per class label); 0 means one per hardware
  // thread. Results are bit-identical for a fixed seed at any thread
  // count: the run Rng is split into one substream per pool, in label
  // order, before any pool is condensed.
  std::size_t num_threads = 0;
  // Anonymization backend (core/backend.h): builds every pool's groups
  // (the static condense, or the dynamic mode's bootstrap) and stamps its
  // identity into them, and so into serialized pools and checkpoints,
  // whose stamp picks the sampler Anonymize regenerates with. Must not be
  // null.
  const Backend* backend = &CondensationBackend();

  // Checks every field (group_size >= 1, bootstrap_fraction in [0, 1],
  // a backend is set). The engine refuses to condense with an invalid
  // config, returning this Status from Condense/CondensePoints —
  // constructing the engine itself never aborts. (k = 1 is permitted
  // here for identity-condensation ablations; the streaming runtime's
  // StreamPipelineConfig requires k >= 2.)
  Status Validate() const;
};

// Per-pool (per-class, or whole-set) condensation outcome.
struct PoolReport {
  // Class label for classification pools; -1 for regression/unlabeled.
  int label = -1;
  // Records condensed in this pool.
  std::size_t pool_size = 0;
  // k actually used: min(config k, pool size) — a class smaller than k
  // cannot be split below one group.
  std::size_t effective_group_size = 0;
  PrivacySummary privacy;
  // Dynamic mode: number of group splits performed.
  std::size_t splits = 0;
};

struct AnonymizationResult {
  data::Dataset anonymized = data::Dataset(0);
  std::vector<PoolReport> reports;

  // Smallest group size across pools: the achieved indistinguishability
  // level of the whole release.
  std::size_t AchievedIndistinguishability() const;
  // Record-weighted average group size across pools (the X axis of every
  // figure in the paper).
  double AverageGroupSize() const;
};

// Everything the server retains after condensation: one group set per
// pool (per class for classification; a single pool otherwise). This is
// the paper's H, partitioned — enough to regenerate releases forever
// without touching raw records again. Serializable via
// core/serialization.h.
struct CondensedPools {
  struct Pool {
    // Class label for classification pools; -1 for regression/unlabeled.
    int label = -1;
    // Dynamic mode: splits performed while condensing this pool.
    std::size_t splits = 0;
    CondensedGroupSet groups;
  };

  data::TaskType task = data::TaskType::kUnlabeled;
  // Dimension of the released records. Regression pools condense in
  // feature_dim + 1 dimensions (target appended).
  std::size_t feature_dim = 0;
  std::vector<Pool> pools;

  // Dimension the group statistics live in.
  std::size_t CondensedDim() const {
    return task == data::TaskType::kRegression ? feature_dim + 1
                                               : feature_dim;
  }
  // Per-pool accounting in AnonymizationResult form.
  std::vector<PoolReport> Reports() const;
};

// Regenerates an anonymized dataset from retained pools. Draws fresh
// randomness, so repeated calls give independent releases with the same
// statistics. Fails on empty/inconsistent pools.
StatusOr<AnonymizationResult> GenerateRelease(
    const CondensedPools& pools, Rng& rng,
    const AnonymizerOptions& anonymizer_options = {});

class CondensationEngine {
 public:
  // Stores the config as-is; validation happens on first use (see
  // CondensationConfig::Validate) so a bad config yields a Status, not
  // an abort.
  explicit CondensationEngine(CondensationConfig config);

  const CondensationConfig& config() const { return config_; }

  // Condenses a full dataset into retained pool statistics (dispatches
  // on dataset.task()); no anonymized data is produced yet.
  StatusOr<CondensedPools> Condense(const data::Dataset& input,
                                    Rng& rng) const;

  // Convenience: Condense followed by GenerateRelease.
  StatusOr<AnonymizationResult> Anonymize(const data::Dataset& input,
                                          Rng& rng) const;

  // Condenses a bare point pool with the configured mode and returns the
  // group aggregates (no anonymized data). Exposed for metrics/benches.
  StatusOr<CondensedGroupSet> CondensePoints(
      const std::vector<linalg::Vector>& points, Rng& rng) const;

 private:
  CondensationConfig config_;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_ENGINE_H_
