#include "runtime/pipeline.h"

#include <chrono>
#include <cmath>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace condensa::runtime {
namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spool entries are journal record lines (core/checkpointing.h) with
// this tag, so torn tails are detectable the same way.
constexpr char kSpoolTag = 's';

struct RuntimeMetrics {
  obs::Counter& submitted;
  obs::Counter& accepted;
  obs::Counter& applied;
  obs::Counter& rejected;
  obs::Counter& dropped;
  obs::Counter& retries;
  obs::Counter& spooled;
  obs::Counter& spool_replayed;
  obs::Counter& breaker_trips;
  obs::Counter& watchdog_stalls;
  obs::Counter& condenser_reopens;
  obs::Counter* quarantined[kQuarantineReasonCount];
  obs::Gauge& queue_depth;
  obs::Gauge& queue_high_water;
  obs::Gauge& degraded;
  obs::Histogram& batch_seconds;

  static RuntimeMetrics& Get() {
    static RuntimeMetrics* metrics = new RuntimeMetrics();
    return *metrics;
  }

 private:
  RuntimeMetrics()
      : submitted(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_submitted_total")),
        accepted(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_accepted_total")),
        applied(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_applied_total")),
        rejected(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_rejected_total")),
        dropped(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_dropped_total")),
        retries(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_retries_total")),
        spooled(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_spooled_total")),
        spool_replayed(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_spool_replayed_total")),
        breaker_trips(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_breaker_trips_total")),
        watchdog_stalls(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_watchdog_stalls_total")),
        condenser_reopens(obs::DefaultRegistry().GetCounter(
            "condensa_runtime_condenser_reopens_total")),
        queue_depth(
            obs::DefaultRegistry().GetGauge("condensa_runtime_queue_depth")),
        queue_high_water(obs::DefaultRegistry().GetGauge(
            "condensa_runtime_queue_high_water")),
        degraded(obs::DefaultRegistry().GetGauge("condensa_runtime_degraded")),
        batch_seconds(obs::DefaultRegistry().GetHistogram(
            "condensa_runtime_batch_seconds")) {
    for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
      quarantined[i] = &obs::DefaultRegistry().GetCounter(
          "condensa_runtime_quarantined_total",
          {{"reason",
            QuarantineReasonName(static_cast<QuarantineReason>(i))}});
    }
  }
};

}  // namespace

Status StreamPipelineConfig::Validate() const {
  if (dim < 1) {
    return InvalidArgumentError("dim must be >= 1");
  }
  if (group_size < 2) {
    return InvalidArgumentError(
        "group_size (k) must be >= 2: a stream served with k = 1 releases "
        "every record as its own group, i.e. no indistinguishability");
  }
  if (checkpoint_dir.empty()) {
    return InvalidArgumentError("checkpoint_dir is required");
  }
  if (backend == nullptr) {
    return InvalidArgumentError("backend must be set");
  }
  if (snapshot_interval < 1) {
    return InvalidArgumentError("snapshot_interval must be >= 1");
  }
  if (queue_capacity < 1) {
    return InvalidArgumentError("queue_capacity must be >= 1");
  }
  if (batch_size < 1) {
    return InvalidArgumentError("batch_size must be >= 1");
  }
  if (!(batch_deadline_ms > 0.0)) {
    return InvalidArgumentError("batch_deadline_ms must be > 0");
  }
  if (retry.max_attempts < 1) {
    return InvalidArgumentError("retry.max_attempts must be >= 1");
  }
  if (retry.backoff_multiplier < 1.0) {
    return InvalidArgumentError("retry.backoff_multiplier must be >= 1");
  }
  if (retry.initial_backoff_ms < 0.0 ||
      retry.max_backoff_ms < retry.initial_backoff_ms) {
    return InvalidArgumentError(
        "retry backoff must satisfy 0 <= initial_backoff_ms <= "
        "max_backoff_ms");
  }
  if (retry.jitter_fraction < 0.0 || retry.jitter_fraction > 1.0) {
    return InvalidArgumentError("retry.jitter_fraction must be in [0, 1]");
  }
  if (breaker.failure_threshold < 1) {
    return InvalidArgumentError("breaker.failure_threshold must be >= 1");
  }
  if (!(breaker.open_duration_ms > 0.0)) {
    return InvalidArgumentError("breaker.open_duration_ms must be > 0");
  }
  if (breaker.probe_successes_to_close < 1) {
    return InvalidArgumentError(
        "breaker.probe_successes_to_close must be >= 1");
  }
  if (finish_drain_deadline_ms < 0.0) {
    return InvalidArgumentError("finish_drain_deadline_ms must be >= 0");
  }
  return OkStatus();
}

std::string StreamPipelineStats::ToString() const {
  std::ostringstream out;
  out << "submitted " << submitted << ", accepted " << accepted
      << ", applied " << applied << ", quarantined " << quarantined
      << " (dimension " << quarantined_dimension << ", non-finite "
      << quarantined_non_finite << ", failure " << quarantined_failure
      << "), rejected " << rejected << ", dropped " << dropped << ", spooled "
      << spooled << " (replayed " << spool_replayed << ", recovered "
      << spool_recovered << ", remaining " << spool_remaining << ")"
      << ", retries " << retries << ", breaker trips " << breaker_trips
      << ", watchdog stalls " << watchdog_stalls << ", condenser reopens "
      << condenser_reopens << ", queue high water " << queue_high_water;
  if (quarantine_write_failures > 0 || spool_write_failures > 0) {
    out << ", WRITE FAILURES (quarantine " << quarantine_write_failures
        << ", spool " << spool_write_failures << ")";
  }
  out << ", ledger " << (Balanced() ? "balanced" : "UNBALANCED");
  return out.str();
}

StreamPipeline::StreamPipeline(StreamPipelineConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity, config_.backpressure),
      breaker_(config_.breaker),
      budget_(config_.retry_budget),
      rng_(config_.seed) {}

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Start(
    StreamPipelineConfig config) {
  CONDENSA_RETURN_IF_ERROR(config.Validate());
  if (config.quarantine_path.empty()) {
    config.quarantine_path = config.checkpoint_dir + "/quarantine.log";
  }
  if (config.spool_path.empty()) {
    config.spool_path = config.checkpoint_dir + "/spool.log";
  }
  CONDENSA_RETURN_IF_ERROR(CreateDirectories(config.checkpoint_dir));

  std::unique_ptr<StreamPipeline> pipeline(
      new StreamPipeline(std::move(config)));
  const StreamPipelineConfig& cfg = pipeline->config_;

  core::DynamicCondenserOptions options;
  options.group_size = cfg.group_size;
  options.split_rule = cfg.split_rule;
  options.backend = cfg.backend;
  core::DurabilityOptions durability;
  durability.snapshot_interval = cfg.snapshot_interval;
  durability.sync_every_append = cfg.sync_every_append;
  CONDENSA_ASSIGN_OR_RETURN(
      core::DurableCondenser durable,
      core::DurableCondenser::Open(cfg.dim, options, durability,
                                   cfg.checkpoint_dir));
  pipeline->durable_.emplace(std::move(durable));

  CONDENSA_ASSIGN_OR_RETURN(
      QuarantineWriter quarantine,
      QuarantineWriter::Open(cfg.quarantine_path, cfg.dim));
  pipeline->quarantine_.emplace(std::move(quarantine));

  // A non-empty spool is the backlog of a previous run that crashed (or
  // hit its Finish drain deadline) while degraded: reload it so those
  // acknowledged records eventually reach the condenser.
  std::size_t valid_bytes = 0;
  bool torn_tail = false;
  if (PathExists(cfg.spool_path)) {
    CONDENSA_ASSIGN_OR_RETURN(std::string content,
                              ReadFileToString(cfg.spool_path));
    std::size_t pos = 0;
    while (pos < content.size()) {
      const std::size_t newline = content.find('\n', pos);
      if (newline == std::string::npos) {
        break;
      }
      linalg::Vector record(cfg.dim);
      if (core::ParseRecordLine(
              std::string_view(content).substr(pos, newline - pos),
              &record) != kSpoolTag) {
        break;
      }
      pipeline->spool_.push_back(std::move(record));
      pos = newline + 1;
      valid_bytes = pos;
    }
    torn_tail = valid_bytes != content.size();
    pipeline->spool_recovered_ = pipeline->spool_.size();
    pipeline->spool_pending_ = pipeline->spool_.size();
  }
  CONDENSA_ASSIGN_OR_RETURN(AppendFile spool_file,
                            AppendFile::Open(cfg.spool_path));
  pipeline->spool_file_ = std::move(spool_file);
  if (torn_tail) {
    // A crash mid-append left a partial line; cut back to the last whole
    // record so new appends start on a line boundary.
    CONDENSA_RETURN_IF_ERROR(pipeline->spool_file_.Truncate(valid_bytes));
  }

  pipeline->worker_ = std::thread(&StreamPipeline::WorkerLoop, pipeline.get());
  return pipeline;
}

StreamPipeline::~StreamPipeline() {
  queue_.Close();
  if (worker_.joinable()) {
    worker_.join();
  }
}

Status StreamPipeline::Submit(const linalg::Vector& record) {
  RuntimeMetrics& metrics = RuntimeMetrics::Get();
  if (finished_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("pipeline is finished");
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  metrics.submitted.Increment();
  if (record.dim() != config_.dim) {
    QuarantineRecord(record, QuarantineReason::kDimensionMismatch,
                     "expected dim " + std::to_string(config_.dim) +
                         ", got " + std::to_string(record.dim()));
    return OkStatus();
  }
  for (std::size_t j = 0; j < record.dim(); ++j) {
    if (!std::isfinite(record[j])) {
      QuarantineRecord(record, QuarantineReason::kNonFinite,
                       "attribute " + std::to_string(j) + " is not finite");
      return OkStatus();
    }
  }
  BoundedQueue<linalg::Vector>::PushResult result = queue_.Push(record);
  if (!result.status.ok()) {
    if (IsResourceExhausted(result.status)) {
      metrics.rejected.Increment();
    }
    return result.status;
  }
  if (result.evicted.has_value()) {
    metrics.dropped.Increment();
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  metrics.accepted.Increment();
  metrics.queue_depth.Set(static_cast<double>(queue_.size()));
  return OkStatus();
}

void StreamPipeline::QuarantineRecord(const linalg::Vector& record,
                                      QuarantineReason reason,
                                      const std::string& detail) {
  // The quarantine is the pipeline's last resort, so its own writes retry
  // harder than regular I/O: unbudgeted, and with extra attempts — losing
  // the quarantine trail to the same chaos that poisoned the record would
  // defeat its purpose. rng_ belongs to the worker thread and this runs on
  // producers too, so jitter comes from a per-call salted stream.
  RetryPolicy policy = config_.retry;
  policy.max_attempts = policy.max_attempts * 2 + 4;
  Rng jitter(config_.seed ^
             (0x9E3779B97F4A7C15ull +
              quarantine_rng_salt_.fetch_add(1, std::memory_order_relaxed)));
  Status status = RetryWithBackoff(
      policy, nullptr, jitter,
      [&] { return quarantine_->Write(record, reason, detail); });
  if (!status.ok()) {
    quarantine_write_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  quarantined_count_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  RuntimeMetrics::Get()
      .quarantined[static_cast<std::size_t>(reason)]
      ->Increment();
}

Status StreamPipeline::ReopenDurable() {
  core::DynamicCondenserOptions options;
  options.group_size = config_.group_size;
  options.split_rule = config_.split_rule;
  options.backend = config_.backend;
  core::DurabilityOptions durability;
  durability.snapshot_interval = config_.snapshot_interval;
  durability.sync_every_append = config_.sync_every_append;
  StatusOr<core::DurableCondenser> recovered =
      core::DurableCondenser::Recover(config_.checkpoint_dir, options,
                                      durability);
  if (!recovered.ok()) {
    return recovered.status();
  }
  durable_.emplace(std::move(recovered).value());
  condenser_reopens_.fetch_add(1, std::memory_order_relaxed);
  RuntimeMetrics::Get().condenser_reopens.Increment();
  return OkStatus();
}

Status StreamPipeline::ApplyRecord(const linalg::Vector& record) {
  std::size_t retries = 0;
  Status status = RetryWithBackoff(
      config_.retry, &budget_, rng_,
      [&]() -> Status {
        if (!durable_.has_value()) {
          CONDENSA_RETURN_IF_ERROR(ReopenDurable());
        }
        Status applied = durable_->Insert(record);
        if (IsFailedPrecondition(applied)) {
          // The instance poisoned itself (post-apply-failure rebuild
          // failed): memory and disk may disagree, so rebuild from disk
          // and give this attempt one more try.
          durable_.reset();
          CONDENSA_RETURN_IF_ERROR(ReopenDurable());
          applied = durable_->Insert(record);
        }
        return applied;
      },
      nullptr, &retries);
  if (retries > 0) {
    retries_.fetch_add(retries, std::memory_order_relaxed);
    RuntimeMetrics::Get().retries.Increment(retries);
  }
  return status;
}

void StreamPipeline::SpoolRecord(const linalg::Vector& record) {
  RuntimeMetrics& metrics = RuntimeMetrics::Get();
  std::string line;
  core::AppendRecordLine(line, kSpoolTag, record);
  // Unbudgeted like the quarantine: the spool is what keeps degraded mode
  // lossless, so it must not be starved by a spent retry budget.
  Status status = RetryWithBackoff(config_.retry, nullptr, rng_, [&] {
    CONDENSA_RETURN_IF_ERROR(spool_file_.Append(line));
    return spool_file_.Sync();
  });
  if (!status.ok()) {
    // The in-memory copy below still feeds the ledger and the eventual
    // replay; what is lost is this record's crash durability.
    spool_write_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  spool_.push_back(record);
  spool_pending_.fetch_add(1, std::memory_order_relaxed);
  spooled_.fetch_add(1, std::memory_order_relaxed);
  metrics.spooled.Increment();
}

void StreamPipeline::MaybeDrainSpool() {
  if (spool_.empty()) {
    return;
  }
  RuntimeMetrics& metrics = RuntimeMetrics::Get();
  while (!spool_.empty()) {
    if (!breaker_.AllowRequest()) {
      return;
    }
    const linalg::Vector& record = spool_.front();
    Status status = ApplyRecord(record);
    if (status.ok()) {
      breaker_.RecordSuccess();
      spool_.pop_front();
      spool_pending_.fetch_sub(1, std::memory_order_relaxed);
      applied_.fetch_add(1, std::memory_order_relaxed);
      spool_replayed_.fetch_add(1, std::memory_order_relaxed);
      metrics.applied.Increment();
      metrics.spool_replayed.Increment();
      continue;
    }
    if (IsRetryable(status)) {
      breaker_.RecordFailure();
      return;
    }
    // Poison in the spool (e.g. a backlog recovered from an older run):
    // quarantine it instead of blocking the drain forever. The condenser
    // answered deterministically, so the probe counts as a success.
    breaker_.RecordSuccess();
    QuarantineRecord(record, QuarantineReason::kRepeatedFailure,
                     status.ToString());
    spool_.pop_front();
    spool_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  // Fully drained: reset the durable mirror. Best effort — a failed
  // truncate only means a crash right now would replay already-applied
  // records (spool replay is at-least-once across crashes).
  Status truncated = spool_file_.Truncate(0);
  (void)truncated;
}

void StreamPipeline::ProcessRecord(const linalg::Vector& record,
                                   bool batch_overran) {
  RuntimeMetrics& metrics = RuntimeMetrics::Get();
  if (batch_overran || !breaker_.AllowRequest()) {
    // Degraded (or mid-stall): buffer durably, condense later.
    SpoolRecord(record);
    return;
  }
  Status status = ApplyRecord(record);
  if (status.ok()) {
    breaker_.RecordSuccess();
    applied_.fetch_add(1, std::memory_order_relaxed);
    metrics.applied.Increment();
    return;
  }
  if (IsRetryable(status)) {
    // Transient failure that outlived its retries: an environment
    // problem, not the record's fault — keep the record (spool) and let
    // the breaker decide whether to degrade.
    breaker_.RecordFailure();
    SpoolRecord(record);
    return;
  }
  // Deterministic rejection: the condenser is healthy, the record is not.
  // Close out the admitted request as a success so a half-open probe does
  // not re-trip on poison, and divert the record.
  breaker_.RecordSuccess();
  QuarantineRecord(record, QuarantineReason::kRepeatedFailure,
                   status.ToString());
}

void StreamPipeline::PublishGauges() {
  RuntimeMetrics& metrics = RuntimeMetrics::Get();
  metrics.queue_depth.Set(static_cast<double>(queue_.size()));
  metrics.queue_high_water.Set(static_cast<double>(queue_.high_water()));
  metrics.degraded.Set(
      breaker_.state() == CircuitBreaker::State::kClosed ? 0.0 : 1.0);
  const std::size_t trips = breaker_.trip_count();
  if (trips > published_trips_) {
    metrics.breaker_trips.Increment(trips - published_trips_);
    published_trips_ = trips;
  }
}

void StreamPipeline::WorkerLoop() {
  RuntimeMetrics& metrics = RuntimeMetrics::Get();
  std::vector<linalg::Vector> batch;
  while (true) {
    batch.clear();
    const std::size_t popped = queue_.PopBatch(&batch, config_.batch_size,
                                               std::chrono::milliseconds(50));
    if (popped == 0) {
      if (queue_.closed() && queue_.size() == 0) {
        break;
      }
      // Idle tick: use it as a health probe / spool drain opportunity.
      MaybeDrainSpool();
      PublishGauges();
      continue;
    }
    const double start_ms = SteadyNowMs();
    bool overran = false;
    for (const linalg::Vector& record : batch) {
      ProcessRecord(record, overran);
      // One trip per overrun batch: the rest of the batch spools instead
      // of pushing more records into whatever is stalling, and the
      // breaker keeps new work out until probes pass.
      if (!overran && SteadyNowMs() - start_ms > config_.batch_deadline_ms) {
        overran = true;
        watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
        metrics.watchdog_stalls.Increment();
        breaker_.ForceTrip();
      }
    }
    drained_.fetch_add(popped, std::memory_order_release);
    metrics.batch_seconds.Observe((SteadyNowMs() - start_ms) / 1000.0);
    MaybeDrainSpool();
    PublishGauges();
    // durable_ can be transiently absent after a failed ReopenDurable;
    // the observer simply misses that beat.
    if (config_.group_observer && durable_.has_value()) {
      config_.group_observer(durable_->groups(), durable_->records_seen());
    }
  }
  PublishGauges();
}

Status StreamPipeline::Flush(double timeout_ms) {
  const double deadline = SteadyNowMs() + timeout_ms;
  while (true) {
    // A record accepted into the queue either gets popped and processed
    // (drained_) or evicted by a producer under kDropOldest (dropped);
    // both are terminal custody states, so the barrier is their sum
    // catching up with accepted_. Comparing counters instead of probing
    // queue-empty avoids the window between PopBatch emptying the queue
    // and the worker finishing the popped batch.
    const std::size_t accepted = accepted_.load(std::memory_order_acquire);
    const std::size_t settled = drained_.load(std::memory_order_acquire) +
                                queue_.dropped();
    if (settled >= accepted) {
      return OkStatus();
    }
    if (finished_.load(std::memory_order_acquire)) {
      return FailedPreconditionError("Flush after Finish");
    }
    if (SteadyNowMs() >= deadline) {
      return UnavailableError(
          "Flush timed out with " + std::to_string(accepted - settled) +
          " records still in flight after " + std::to_string(timeout_ms) +
          " ms");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

StatusOr<StreamPipelineStats> StreamPipeline::Finish() {
  if (finished_.exchange(true, std::memory_order_acq_rel)) {
    return FailedPreconditionError("Finish was already called");
  }
  queue_.Close();
  if (worker_.joinable()) {
    worker_.join();
  }

  // Final drain, bounded by the configured deadline: the breaker may be
  // cooling down, so poll rather than give up on the first refusal.
  // Whatever cannot be drained stays durably in the spool file for the
  // next run to recover.
  const double deadline = SteadyNowMs() + config_.finish_drain_deadline_ms;
  while (!spool_.empty()) {
    MaybeDrainSpool();
    if (spool_.empty() || SteadyNowMs() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Final checkpoint: one snapshot generation holding every applied
  // record, so restart does not need the journal.
  Status checkpoint = OkStatus();
  if (durable_.has_value()) {
    std::size_t retries = 0;
    checkpoint = RetryWithBackoff(
        config_.retry, nullptr, rng_, [&] { return durable_->Checkpoint(); },
        nullptr, &retries);
    if (retries > 0) {
      retries_.fetch_add(retries, std::memory_order_relaxed);
      RuntimeMetrics::Get().retries.Increment(retries);
    }
  }
  PublishGauges();
  CONDENSA_RETURN_IF_ERROR(checkpoint);
  return stats();
}

StreamPipelineStats StreamPipeline::stats() const {
  StreamPipelineStats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected = queue_.rejected();
  out.dropped = queue_.dropped();
  out.applied = applied_.load(std::memory_order_relaxed);
  out.quarantined_dimension =
      quarantined_count_[static_cast<std::size_t>(
                             QuarantineReason::kDimensionMismatch)]
          .load(std::memory_order_relaxed);
  out.quarantined_non_finite =
      quarantined_count_[static_cast<std::size_t>(QuarantineReason::kNonFinite)]
          .load(std::memory_order_relaxed);
  out.quarantined_failure =
      quarantined_count_[static_cast<std::size_t>(
                             QuarantineReason::kRepeatedFailure)]
          .load(std::memory_order_relaxed);
  out.quarantined = out.quarantined_dimension + out.quarantined_non_finite +
                    out.quarantined_failure;
  out.spooled = spooled_.load(std::memory_order_relaxed);
  out.spool_replayed = spool_replayed_.load(std::memory_order_relaxed);
  out.spool_remaining = spool_pending_.load(std::memory_order_relaxed);
  out.spool_recovered = spool_recovered_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.breaker_trips = breaker_.trip_count();
  out.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  out.condenser_reopens = condenser_reopens_.load(std::memory_order_relaxed);
  out.queue_high_water = queue_.high_water();
  out.quarantine_write_failures =
      quarantine_write_failures_.load(std::memory_order_relaxed);
  out.spool_write_failures =
      spool_write_failures_.load(std::memory_order_relaxed);
  return out;
}

const core::CondensedGroupSet& StreamPipeline::groups() const {
  CONDENSA_CHECK(durable_.has_value());
  return durable_->groups();
}

StatusOr<core::CondensedGroupSet> StreamPipeline::TakeGroups() {
  if (!finished_.load(std::memory_order_acquire)) {
    return FailedPreconditionError(
        "TakeGroups requires Finish() first: the worker still owns the "
        "condenser");
  }
  CONDENSA_CHECK(durable_.has_value());
  return durable_->TakeGroups();
}

std::size_t StreamPipeline::records_seen() const {
  CONDENSA_CHECK(durable_.has_value());
  return durable_->records_seen();
}

}  // namespace condensa::runtime
