// Anonymized-data construction from condensed groups (paper Section 2.1).
//
// For each group the covariance matrix is eigendecomposed, C = P Λ Pᵀ, and
// records are regenerated under the locally-uniform independence
// assumption: each anonymized point is
//     x = centroid + Σ_j u_j e_j,   u_j ~ Uniform(−sqrt(3 λ_j), sqrt(3 λ_j))
// so every axis contribution has mean 0 and variance exactly λ_j. A group
// of size 1 has zero covariance, so its single regenerated record is its
// centroid — i.e. static condensation with k = 1 reproduces the original
// data exactly, the property the paper uses as its baseline anchor.

#ifndef CONDENSA_CORE_ANONYMIZER_H_
#define CONDENSA_CORE_ANONYMIZER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "linalg/eigen.h"
#include "linalg/vector.h"

namespace condensa::core {

// Shape of the per-eigenvector sampling distribution.
enum class SamplingDistribution {
  // The paper's choice: Uniform(−sqrt(3 λ_j), sqrt(3 λ_j)).
  kUniform = 0,
  // Design-choice ablation: Gaussian N(0, λ_j) along each eigenvector
  // (unbounded support, heavier concentration at the centroid).
  kGaussian = 1,
};

struct AnonymizerOptions {
  // When set, each group emits exactly this many records instead of its
  // own n(G); 0 means "one output record per condensed input record".
  std::size_t records_per_group = 0;
  // Per-eigenvector sampling distribution (paper: uniform).
  SamplingDistribution distribution = SamplingDistribution::kUniform;
  // Worker threads for Generate's per-group fan-out; 0 means one per
  // hardware thread. Output is bit-identical for a fixed seed at any
  // thread count: the caller's Rng is split into one substream per group
  // on the calling thread, in group order, before any worker runs.
  std::size_t num_threads = 0;
};

// Draws `count` anonymized points from an already-computed factorization
// C = P Λ Pᵀ: x = centroid + Σ_j u_j e_j with u_j ~ Uniform(±sqrt(3 λ_j))
// (or N(0, λ_j) for the Gaussian ablation).
std::vector<linalg::Vector> SampleFromEigen(
    const linalg::Vector& centroid, const linalg::EigenDecomposition& eigen,
    std::size_t count, SamplingDistribution distribution, Rng& rng);

// Where RegenerateGroup gets a group's covariance factorization:
// Anonymizer decomposes afresh, the query plane reads its version-keyed
// cache (src/query/eigen_cache.h).
using EigenSource =
    std::function<StatusOr<std::shared_ptr<const linalg::EigenDecomposition>>(
        const GroupStatistics& group)>;

// Regenerates `count` records from one group aggregate under `backend`,
// the record the group's set is stamped with (StampedBackend). The one
// place that holds the rule: the record's `sample` when it has one;
// otherwise a group of one record emits its centroid (zero covariance),
// and any other group is sampled by SampleFromEigen from the
// factorization `eigen` supplies. Both Anonymizer::Generate and the query
// plane's regenerate run exactly this code, so for the same Rng state
// their records are bit-identical. InvalidArgument for an empty group.
StatusOr<std::vector<linalg::Vector>> RegenerateGroup(
    const Backend& backend, const GroupStatistics& group, std::size_t count,
    SamplingDistribution distribution, const EigenSource& eigen, Rng& rng);

class Anonymizer {
 public:
  explicit Anonymizer(AnonymizerOptions options = {}) : options_(options) {}

  const AnonymizerOptions& options() const { return options_; }

  // Regenerates `count` records from one group aggregate with the
  // eigendecomposition sampler (the condensation record's regeneration).
  StatusOr<std::vector<linalg::Vector>> GenerateFromGroup(
      const GroupStatistics& group, std::size_t count, Rng& rng) const;

  // Regenerates an anonymized point set for the whole group set; group i
  // contributes n(G_i) records (or records_per_group when configured).
  // The set's stamp picks the sampler (StampedBackend, whose errors are
  // returned before any group is sampled). Groups are regenerated in
  // parallel (num_threads), each from its own Rng::Split() substream, so
  // the output depends only on the seed — never on the thread count.
  StatusOr<std::vector<linalg::Vector>> Generate(
      const CondensedGroupSet& groups, Rng& rng) const;

 private:
  AnonymizerOptions options_;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_ANONYMIZER_H_
