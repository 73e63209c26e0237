// Supervised streaming ingest runtime.
//
// The paper's dynamic regime (DynamicGroupMaintenance) assumes records
// arrive one at a time forever — which in production means the ingest
// path must survive everything a long-running collector sees: malformed
// tuples, flaky disks, stalled fsyncs, slow eigendecompositions. A bare
// DurableCondenser loop dies (or wedges) on the first of those.
// StreamPipeline wraps it in the supervision machinery:
//
//   producers ──► BoundedQueue (backpressure) ──► worker thread
//                                                   │ validate → quarantine
//                                                   │ apply w/ retry+backoff
//                                                   │ breaker open → spool
//                                                   │ batch deadline → trip
//                                                   ▼
//                                          DurableCondenser (journal+snapshot)
//
//   * Bounded MPSC queue: queue memory is capped; a producer hitting the
//     cap blocks, sheds load, or evicts the oldest record per the
//     configured BackpressurePolicy. Evictions/rejections are counted.
//   * Poison quarantine: records failing validation (dimension, NaN/Inf)
//     or failing the condenser deterministically are appended to a
//     quarantine file with a reason code; the stream keeps flowing.
//   * Retry with exponential backoff + jitter around checkpoint/journal
//     I/O, bounded by a run-wide RetryBudget.
//   * Circuit breaker + graceful degradation: repeated transient failures
//     (or a batch past its deadline) flip the pipeline into
//     buffer-and-checkpoint-only mode — records are appended durably to a
//     spool file instead of being condensed — and health probes drain the
//     spool back through the condenser once the fault clears.
//   * Batch deadline: after each record the worker checks the batch's
//     wall-clock age; a batch past its deadline trips the breaker so the
//     rest of the batch degrades to the spool instead of wedging the
//     queue. A call that hangs is caught when it returns.
//
// Accounting invariant (asserted by the chaos soak test): every record
// Submit() accepted is, by Finish(), exactly one of applied | quarantined
// | dropped-by-policy | still-in-spool. Nothing is silently lost.
//
// All health signals are exported through obs::DefaultRegistry() under
// condensa_runtime_* (see docs/resilience.md).

#ifndef CONDENSA_RUNTIME_PIPELINE_H_
#define CONDENSA_RUNTIME_PIPELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/checkpointing.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "runtime/bounded_queue.h"
#include "runtime/circuit_breaker.h"
#include "runtime/quarantine.h"
#include "runtime/retry.h"

namespace condensa::runtime {

struct StreamPipelineConfig {
  // Record dimension. Must be >= 1.
  std::size_t dim = 0;
  // Indistinguishability level k. Must be >= 2 — a runtime serving real
  // traffic with k = 1 releases every record as its own group, i.e. no
  // privacy at all (the k = 1 identity setting exists only for offline
  // ablations through CondensationEngine).
  std::size_t group_size = 10;
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;

  // Anonymization backend the stream maintains its structure under
  // (core/backend.h). Its identity is stamped into every checkpoint;
  // recovery refuses checkpoints written under a different backend. The
  // stream path itself is pure nearest-centroid maintenance with no
  // bootstrap, so the backend's build is never called here.
  const core::Backend* backend = &core::CondensationBackend();

  // Durability: where snapshots/journals live (required), how often to
  // snapshot (>= 1), whether to fsync every journal append.
  std::string checkpoint_dir;
  std::size_t snapshot_interval = 256;
  bool sync_every_append = true;

  // Queue: capacity bound (>= 1) and what happens at the bound.
  std::size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  // Worker: records per batch (>= 1) and the wall-clock deadline per
  // batch (> 0), checked by the worker after each record.
  std::size_t batch_size = 32;
  double batch_deadline_ms = 1000.0;

  // Retry schedule for transient condenser/checkpoint failures, plus the
  // run-wide cap on total retries.
  RetryPolicy retry;
  std::size_t retry_budget = 10000;

  CircuitBreakerOptions breaker;

  // How long Finish() keeps trying to drain the degraded-mode spool
  // before leaving the remainder durably on disk.
  double finish_drain_deadline_ms = 5000.0;

  // Defaults: <checkpoint_dir>/quarantine.log, <checkpoint_dir>/spool.log.
  std::string quarantine_path;
  std::string spool_path;

  // Seeds retry jitter.
  std::uint64_t seed = 42;

  // Read-side hook: when set, the worker thread calls this after every
  // completed batch with the condenser's current group set and total
  // records seen. The reference is only valid during the call — the
  // observer copies what it wants to keep (typically into a
  // query::SnapshotStore so a QueryServer can answer against a stable
  // snapshot while ingest keeps mutating the live structure underneath).
  // Runs on the worker thread: keep it cheap, never block on the
  // pipeline's own API from inside it.
  std::function<void(const core::CondensedGroupSet& groups,
                     std::size_t records_seen)>
      group_observer;

  // Full construction-time validation; Start() refuses invalid configs
  // with the returned Status instead of misbehaving later.
  Status Validate() const;
};

struct StreamPipelineStats {
  std::size_t submitted = 0;
  // Records taken into custody (queued).
  std::size_t accepted = 0;
  // Push refusals under kReject.
  std::size_t rejected = 0;
  // Evictions under kDropOldest (policy-sanctioned, counted loss).
  std::size_t dropped = 0;
  // Records applied to the durable condenser (includes spool replays).
  std::size_t applied = 0;
  // Quarantine entries, total and by reason.
  std::size_t quarantined = 0;
  std::size_t quarantined_dimension = 0;
  std::size_t quarantined_non_finite = 0;
  std::size_t quarantined_failure = 0;
  // Records diverted to the degraded-mode spool, how many of those were
  // replayed into the condenser, and how many remain spooled (durable on
  // disk) at Finish.
  std::size_t spooled = 0;
  std::size_t spool_replayed = 0;
  std::size_t spool_remaining = 0;
  // Spool records inherited from a previous crashed run.
  std::size_t spool_recovered = 0;
  std::size_t retries = 0;
  std::size_t breaker_trips = 0;
  // Batches that ran past batch_deadline_ms (the name predates the
  // worker-side check; it is on the fabric wire).
  std::size_t watchdog_stalls = 0;
  // Times the durable condenser was rebuilt via Recover after poisoning.
  std::size_t condenser_reopens = 0;
  std::size_t queue_high_water = 0;
  // Writes to the quarantine/spool files that failed even after retrying.
  // The records are still accounted (in-memory ledger) but their durable
  // trail is incomplete — nonzero values mean the disk is truly gone.
  std::size_t quarantine_write_failures = 0;
  std::size_t spool_write_failures = 0;

  // The zero-silent-loss ledger: accepted (+ recovered spool backlog)
  // must equal applied + worker-quarantined + dropped + spool_remaining.
  bool Balanced() const {
    return accepted + spool_recovered ==
           applied + quarantined_failure + dropped + spool_remaining;
  }

  std::string ToString() const;
};

class StreamPipeline {
 public:
  // Validates `config`, opens (or recovers) the durable condenser and the
  // quarantine/spool files, preloads any spool backlog left by a crashed
  // run, and starts the worker thread.
  static StatusOr<std::unique_ptr<StreamPipeline>> Start(
      StreamPipelineConfig config);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  // Joins the worker (drains nothing beyond what Finish already did).
  ~StreamPipeline();

  // Producer API; safe from any number of threads. A record failing
  // validation is quarantined and Submit still returns OK — the record's
  // fate is recorded, the stream continues (that is the point of the
  // quarantine). Non-OK returns: kFailedPrecondition after Finish/Close,
  // kResourceExhausted under the kReject policy.
  Status Submit(const linalg::Vector& record);

  // Blocks until every record accepted so far has been processed by the
  // worker thread — applied to the durable condenser, quarantined, or
  // spooled — or `timeout_ms` elapses (kUnavailable). The pipeline keeps
  // running; Submit stays legal afterwards. This is the custody barrier
  // the networked shard fabric acks behind: once Flush returns OK, a
  // kill -9 loses nothing, because each record's durable trail (journal,
  // quarantine log, or spool) was already written. Call from a producer
  // that has stopped submitting; records submitted concurrently extend
  // the wait.
  Status Flush(double timeout_ms);

  // Closes intake, drains the queue and (deadline-bounded) the spool,
  // writes a final checkpoint, joins the worker, and returns the final
  // ledger. Callable once.
  StatusOr<StreamPipelineStats> Finish();

  // Live counters (also exported via obs metrics).
  StreamPipelineStats stats() const;

  CircuitBreaker::State breaker_state() const { return breaker_.state(); }

  // The condensed structure; stable only after Finish(). A pure stream
  // shorter than k records lives entirely in the condenser's forming
  // buffer and is NOT visible here — use TakeGroups for an accounting-
  // complete view.
  const core::CondensedGroupSet& groups() const;
  std::size_t records_seen() const;

  // Finalizes and extracts the condensed structure, folding any forming
  // remainder in (or emitting it as one sub-k group when nothing else
  // exists) so every applied record is represented — what the scatter/
  // gather coordinator consumes (see shard/coordinator.h). Only legal
  // after Finish(); the in-memory condenser is left empty, while the
  // on-disk checkpoint keeps the pre-take state for the next run.
  StatusOr<core::CondensedGroupSet> TakeGroups();

  const StreamPipelineConfig& config() const { return config_; }

 private:
  explicit StreamPipeline(StreamPipelineConfig config);

  void WorkerLoop();
  // One record through validate → breaker → retry → quarantine/spool;
  // `batch_overran` (its batch is past the deadline) sends it straight
  // to the spool.
  void ProcessRecord(const linalg::Vector& record, bool batch_overran);
  // Applies through the durable condenser with retry/backoff, rebuilding
  // a poisoned condenser via Recover.
  Status ApplyRecord(const linalg::Vector& record);
  Status ReopenDurable();
  // Durable append to the degraded-mode spool (memory fallback on error).
  void SpoolRecord(const linalg::Vector& record);
  // Replays spooled records while the breaker admits requests.
  void MaybeDrainSpool();
  void QuarantineRecord(const linalg::Vector& record,
                        QuarantineReason reason, const std::string& detail);
  void PublishGauges();

  StreamPipelineConfig config_;
  BoundedQueue<linalg::Vector> queue_;
  std::optional<core::DurableCondenser> durable_;
  std::optional<QuarantineWriter> quarantine_;
  AppendFile spool_file_;
  // Degraded-mode backlog, in arrival order; mirrors spool_file_.
  std::deque<linalg::Vector> spool_;
  CircuitBreaker breaker_;
  RetryBudget budget_;
  Rng rng_;  // worker-thread only

  std::thread worker_;

  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> accepted_{0};
  // Records the worker thread has fully processed (batch completed);
  // Flush waits for drained_ + dropped to catch up with accepted_.
  std::atomic<std::size_t> drained_{0};
  std::atomic<std::size_t> applied_{0};
  std::atomic<std::size_t> spooled_{0};
  std::atomic<std::size_t> spool_replayed_{0};
  std::atomic<std::size_t> spool_recovered_{0};
  // Mirrors spool_.size() for lock-free stats() reads.
  std::atomic<std::size_t> spool_pending_{0};
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> watchdog_stalls_{0};
  std::atomic<std::size_t> condenser_reopens_{0};
  std::atomic<std::size_t> quarantined_count_[kQuarantineReasonCount] = {};
  std::atomic<std::size_t> quarantine_write_failures_{0};
  std::atomic<std::size_t> spool_write_failures_{0};
  // Salts per-call jitter RNGs on the producer-side quarantine path
  // (rng_ belongs to the worker thread).
  std::atomic<std::uint64_t> quarantine_rng_salt_{0};
  std::atomic<bool> finished_{false};
  // Breaker trips already exported to the metrics counter (worker thread
  // and post-join Finish only).
  std::size_t published_trips_ = 0;
};

}  // namespace condensa::runtime

#endif  // CONDENSA_RUNTIME_PIPELINE_H_
