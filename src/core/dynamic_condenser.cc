#include "core/dynamic_condenser.h"

#include <utility>

#include "common/failpoint.h"
#include "core/split.h"
#include "obs/metrics.h"
#include "obs/timing.h"

namespace condensa::core {
namespace {

// Latency histograms are sampled 1-in-kLatencySampleEvery so the clock
// reads stay invisible next to the nearest-centroid scan; counters are
// exact.
constexpr std::size_t kLatencySampleEvery = 16;

struct DynamicCondenserMetrics {
  obs::Counter& inserts =
      obs::DefaultRegistry().GetCounter("condensa_dynamic_inserts_total");
  obs::Counter& removes =
      obs::DefaultRegistry().GetCounter("condensa_dynamic_removes_total");
  obs::Counter& splits =
      obs::DefaultRegistry().GetCounter("condensa_dynamic_splits_total");
  obs::Counter& merges =
      obs::DefaultRegistry().GetCounter("condensa_dynamic_merges_total");
  obs::Histogram& insert_seconds = obs::DefaultRegistry().GetHistogram(
      "condensa_dynamic_insert_seconds");
  obs::Histogram& remove_seconds = obs::DefaultRegistry().GetHistogram(
      "condensa_dynamic_remove_seconds");

  static DynamicCondenserMetrics& Get() {
    static DynamicCondenserMetrics metrics;
    return metrics;
  }
};

}  // namespace

DynamicCondenser::DynamicCondenser(std::size_t dim,
                                   DynamicCondenserOptions options)
    : options_(std::move(options)), groups_(dim, options_.group_size) {
  CONDENSA_CHECK_GE(options_.group_size, 1u);
  CONDENSA_CHECK(options_.backend != nullptr);
  groups_.SetBackend(options_.backend->id, options_.backend->version);
}

StatusOr<DynamicCondenser> DynamicCondenser::FromState(
    State state, DynamicCondenserOptions options) {
  if (state.forming.has_value() &&
      state.forming->dim() != state.groups.dim()) {
    return InvalidArgumentError(
        "forming-buffer dimension disagrees with the group set");
  }
  // A structure built by one backend cannot be maintained under another:
  // the group shapes (and the regeneration they feed) would silently
  // disagree with what the operator asked for.
  if (state.groups.backend_id() != options.backend->id) {
    return FailedPreconditionError(
        "state was written by backend '" + state.groups.backend_id() +
        "' but this condenser is configured for '" + options.backend->id +
        "'; rerun with the matching --backend");
  }
  if (state.groups.backend_version() != options.backend->version) {
    return FailedPreconditionError(
        "state was written by backend '" + state.groups.backend_id() +
        "' version " + std::to_string(state.groups.backend_version()) +
        " but this build provides version " +
        std::to_string(options.backend->version));
  }
  DynamicCondenser condenser(state.groups.dim(), options);
  condenser.groups_ = std::move(state.groups);
  condenser.forming_ = std::move(state.forming);
  condenser.split_count_ = state.split_count;
  condenser.merge_count_ = state.merge_count;
  condenser.records_seen_ = state.records_seen;
  condenser.bootstrapped_ = state.bootstrapped;
  return condenser;
}

Status DynamicCondenser::Bootstrap(
    const std::vector<linalg::Vector>& initial, Rng& rng) {
  if (bootstrapped_ || records_seen_ > 0) {
    return FailedPreconditionError(
        "Bootstrap must be called once, before any Insert");
  }
  CONDENSA_ASSIGN_OR_RETURN(
      groups_, options_.backend->Build(initial, options_.group_size, rng));
  records_seen_ = initial.size();
  bootstrapped_ = true;
  return OkStatus();
}

Status DynamicCondenser::Insert(const linalg::Vector& record) {
  if (record.dim() != dim()) {
    return InvalidArgumentError("record dimension mismatch");
  }
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("dynamic.insert"));
  DynamicCondenserMetrics& metrics = DynamicCondenserMetrics::Get();
  metrics.inserts.Increment();
  obs::ScopedTimer latency(records_seen_ % kLatencySampleEvery == 0
                               ? &metrics.insert_seconds
                               : nullptr);
  ++records_seen_;

  // Pure-stream warm-up: no full group exists yet.
  if (groups_.empty()) {
    if (!forming_.has_value()) {
      forming_.emplace(dim());
    }
    forming_->Add(record);
    if (forming_->count() >= options_.group_size) {
      groups_.AddGroup(std::move(*forming_));
      forming_.reset();
    }
    return OkStatus();
  }

  // Paper Fig. 2: add to the nearest centroid's aggregate; split at 2k.
  std::size_t nearest = groups_.NearestGroup(record);
  GroupStatistics& target = groups_.mutable_group(nearest);
  target.Add(record);
  if (target.count() >= 2 * options_.group_size) {
    CONDENSA_ASSIGN_OR_RETURN(
        SplitResult split,
        SplitGroupStatistics(target, options_.split_rule));
    groups_.RemoveGroup(nearest);
    groups_.AddGroup(std::move(split.lower));
    groups_.AddGroup(std::move(split.upper));
    ++split_count_;
    metrics.splits.Increment();
  }
  return OkStatus();
}

Status DynamicCondenser::Remove(const linalg::Vector& record) {
  if (record.dim() != dim()) {
    return InvalidArgumentError("record dimension mismatch");
  }
  DynamicCondenserMetrics& metrics = DynamicCondenserMetrics::Get();
  metrics.removes.Increment();
  obs::ScopedTimer latency(records_seen_ % kLatencySampleEvery == 0
                               ? &metrics.remove_seconds
                               : nullptr);
  if (groups_.empty()) {
    // The record can only live in the forming buffer.
    if (!forming_.has_value() || forming_->count() == 0) {
      return FailedPreconditionError("structure holds no records");
    }
    forming_->Remove(record);
    if (forming_->count() == 0) {
      forming_.reset();
    }
    --records_seen_;
    return OkStatus();
  }

  std::size_t nearest = groups_.NearestGroup(record);
  GroupStatistics& target = groups_.mutable_group(nearest);
  target.Remove(record);
  --records_seen_;

  if (target.count() == 0) {
    groups_.RemoveGroup(nearest);
    return OkStatus();
  }
  if (target.count() < options_.group_size && groups_.num_groups() > 1) {
    // Restore the privacy floor: fold the undersized aggregate into the
    // group with the nearest centroid.
    GroupStatistics undersized = std::move(target);
    groups_.RemoveGroup(nearest);
    std::size_t merge_into = groups_.NearestGroup(undersized.Centroid());
    groups_.mutable_group(merge_into).Merge(undersized);
    ++merge_count_;
    metrics.merges.Increment();
    // The merged group may have reached 2k; split it like an insert would.
    GroupStatistics& merged = groups_.mutable_group(merge_into);
    if (merged.count() >= 2 * options_.group_size) {
      CONDENSA_ASSIGN_OR_RETURN(SplitResult split,
                                SplitGroupStatistics(merged,
                                                     options_.split_rule));
      groups_.RemoveGroup(merge_into);
      groups_.AddGroup(std::move(split.lower));
      groups_.AddGroup(std::move(split.upper));
      ++split_count_;
      metrics.splits.Increment();
    }
  }
  return OkStatus();
}

CondensedGroupSet DynamicCondenser::TakeGroups() {
  if (forming_.has_value() && forming_->count() > 0) {
    if (groups_.empty()) {
      // Nothing else to merge into; emit the undersized group as-is so the
      // records are not lost (caller can inspect Summary().min_group_size).
      groups_.AddGroup(std::move(*forming_));
    } else {
      std::size_t nearest = groups_.NearestGroup(forming_->Centroid());
      groups_.mutable_group(nearest).Merge(*forming_);
    }
    forming_.reset();
  }
  CondensedGroupSet out = std::move(groups_);
  groups_ = CondensedGroupSet(out.dim(), options_.group_size);
  records_seen_ = 0;
  split_count_ = 0;
  merge_count_ = 0;
  bootstrapped_ = false;
  return out;
}

}  // namespace condensa::core
