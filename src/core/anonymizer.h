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
  // Backend whose sampler regenerates every group (core/backend.h); a
  // backend without one uses the eigendecomposition path above (the
  // per-group Rng splitting and parallel fan-out are the same either
  // way). Must not be null.
  const Backend* backend = &CondensationBackend();
};

// Draws `count` anonymized points from an already-computed factorization
// C = P Λ Pᵀ: x = centroid + Σ_j u_j e_j with u_j ~ Uniform(±sqrt(3 λ_j))
// (or N(0, λ_j) for the Gaussian ablation). This is the sampling kernel
// shared by Anonymizer::GenerateFromGroup and the query plane's cached
// regeneration (src/query/engine.h) — given the same Rng state the two
// paths are bit-identical, because they run exactly this code.
std::vector<linalg::Vector> SampleFromEigen(
    const linalg::Vector& centroid, const linalg::EigenDecomposition& eigen,
    std::size_t count, SamplingDistribution distribution, Rng& rng);

class Anonymizer {
 public:
  explicit Anonymizer(AnonymizerOptions options = {}) : options_(options) {}

  const AnonymizerOptions& options() const { return options_; }

  // Regenerates `count` records from one group aggregate.
  StatusOr<std::vector<linalg::Vector>> GenerateFromGroup(
      const GroupStatistics& group, std::size_t count, Rng& rng) const;

  // Regenerates an anonymized point set for the whole group set; group i
  // contributes n(G_i) records (or records_per_group when configured).
  // Groups are eigendecomposed and sampled in parallel (num_threads),
  // each from its own Rng::Split() substream, so the output depends only
  // on the seed — never on the thread count.
  StatusOr<std::vector<linalg::Vector>> Generate(
      const CondensedGroupSet& groups, Rng& rng) const;

 private:
  AnonymizerOptions options_;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_ANONYMIZER_H_
