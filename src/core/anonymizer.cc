#include "core/anonymizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "linalg/eigen.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "simd/distance.h"

namespace condensa::core {
namespace {

// Anonymizer's EigenSource: factorizes `group`'s covariance afresh.
StatusOr<std::shared_ptr<const linalg::EigenDecomposition>>
DecomposeCovariance(const GroupStatistics& group) {
  CONDENSA_ASSIGN_OR_RETURN(
      linalg::EigenDecomposition eigen,
      linalg::CovarianceEigenDecomposition(group.Covariance()));
  return std::make_shared<const linalg::EigenDecomposition>(std::move(eigen));
}

}  // namespace

std::vector<linalg::Vector> SampleFromEigen(
    const linalg::Vector& centroid, const linalg::EigenDecomposition& eigen,
    std::size_t count, SamplingDistribution distribution, Rng& rng) {
  const std::size_t d = centroid.dim();
  // Per-eigenvector scale: uniform draws span ±sqrt(3 λ_j) (variance λ_j),
  // Gaussian draws use stddev sqrt(λ_j).
  const bool gaussian = distribution == SamplingDistribution::kGaussian;
  linalg::Vector scale(d);
  for (std::size_t j = 0; j < d; ++j) {
    // Singular group covariances (constant attributes, duplicate points)
    // can surface eigenvalues a hair below zero through numerical noise;
    // treat them as the exact zeros they represent rather than feeding
    // sqrt a negative.
    const double lambda = std::max(0.0, eigen.eigenvalues[j]);
    scale[j] = gaussian ? std::sqrt(lambda) : std::sqrt(3.0 * lambda);
  }

  // Batched per-group generation: pack the active eigenvectors (zero-
  // scale axes draw nothing, exactly as before) once per group,
  // transposed to contiguous rows, then emit each record as one draw
  // pass plus one vectorized accumulation. Draw order (ascending j) and
  // per-element addition order are unchanged, and simd::AddScaledRows is
  // contraction-free, so the output is bit-identical to the original
  // per-axis loop.
  std::vector<std::size_t> active;
  active.reserve(d);
  for (std::size_t j = 0; j < d; ++j) {
    if (scale[j] != 0.0) active.push_back(j);
  }
  std::vector<double> rows(active.size() * d);
  for (std::size_t a = 0; a < active.size(); ++a) {
    for (std::size_t r = 0; r < d; ++r) {
      rows[a * d + r] = eigen.eigenvectors(r, active[a]);
    }
  }
  std::vector<double> coeffs(active.size());

  std::vector<linalg::Vector> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    linalg::Vector point = centroid;
    for (std::size_t a = 0; a < active.size(); ++a) {
      const double s = scale[active[a]];
      coeffs[a] = gaussian ? rng.Gaussian(0.0, s) : rng.Uniform(-s, s);
    }
    simd::AddScaledRows(d, coeffs.data(), rows.data(), active.size(),
                        point.data());
    out.push_back(std::move(point));
  }
  return out;
}

StatusOr<std::vector<linalg::Vector>> RegenerateGroup(
    const Backend& backend, const GroupStatistics& group, std::size_t count,
    SamplingDistribution distribution, const EigenSource& eigen, Rng& rng) {
  if (group.empty()) {
    return InvalidArgumentError("cannot anonymize an empty group");
  }
  if (backend.sample) {
    return backend.sample(group, count, rng);
  }
  linalg::Vector centroid = group.Centroid();
  if (group.count() == 1) {
    // Degenerate group: zero covariance, the centroid is the exact record.
    return std::vector<linalg::Vector>(count, centroid);
  }
  CONDENSA_ASSIGN_OR_RETURN(
      std::shared_ptr<const linalg::EigenDecomposition> factorization,
      eigen(group));
  return SampleFromEigen(centroid, *factorization, count, distribution, rng);
}

StatusOr<std::vector<linalg::Vector>> Anonymizer::GenerateFromGroup(
    const GroupStatistics& group, std::size_t count, Rng& rng) const {
  return RegenerateGroup(CondensationBackend(), group, count,
                         options_.distribution, DecomposeCovariance, rng);
}

StatusOr<std::vector<linalg::Vector>> Anonymizer::Generate(
    const CondensedGroupSet& groups, Rng& rng) const {
  obs::ScopedTimer timer(obs::DefaultRegistry().GetHistogram(
      "condensa_pool_generate_seconds"));
  CONDENSA_ASSIGN_OR_RETURN(const Backend* backend, StampedBackend(groups));

  // One substream and one result slot per group, assigned in group order
  // on this thread, so the released data is a pure function of the seed:
  // workers race only over *which slot runs when*, never over the Rng.
  const std::size_t num_groups = groups.num_groups();
  std::vector<Rng> streams;
  streams.reserve(num_groups);
  for (std::size_t i = 0; i < num_groups; ++i) {
    streams.push_back(rng.Split());
  }
  std::vector<StatusOr<std::vector<linalg::Vector>>> slots(
      num_groups, std::vector<linalg::Vector>{});
  std::vector<std::function<void()>> tasks;
  tasks.reserve(num_groups);
  for (std::size_t i = 0; i < num_groups; ++i) {
    tasks.push_back([this, backend, &groups, &streams, &slots, i] {
      const GroupStatistics& group = groups.group(i);
      std::size_t count = options_.records_per_group > 0
                              ? options_.records_per_group
                              : group.count();
      slots[i] = RegenerateGroup(*backend, group, count,
                                 options_.distribution, DecomposeCovariance,
                                 streams[i]);
    });
  }
  ParallelRun(ThreadPool::ResolveThreadCount(options_.num_threads), tasks);

  // The true output size: records_per_group overrides each group's n(G),
  // so TotalRecords() would over- (or under-) reserve in that mode.
  const std::size_t total_records =
      options_.records_per_group > 0
          ? num_groups * options_.records_per_group
          : groups.TotalRecords();
  std::vector<linalg::Vector> out;
  out.reserve(total_records);
  for (StatusOr<std::vector<linalg::Vector>>& slot : slots) {
    CONDENSA_RETURN_IF_ERROR(slot.status());
    for (linalg::Vector& point : *slot) {
      out.push_back(std::move(point));
    }
  }
  return out;
}

}  // namespace condensa::core
