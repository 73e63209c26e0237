// Sharded durable streaming ingest: N independent shard Workers behind
// one Submit surface — the paper's dynamic condensation, sharded.
//
// A Router assigns every arriving record to one of N shards. Each shard
// is one Worker (shard/worker.h): the full supervised runtime (bounded
// queue, quarantine, retry, circuit breaker) over its own crash-safe
// checkpoint directory <checkpoint_root>/shard-<i>. Finish drains every
// shard and gathers the shard-local aggregates into one global release
// structure through the Coordinator's exact-merge fold; the per-shard
// ledgers ride along so the caller can assert zero silent loss shard by
// shard. Static sharding (paper Fig. 1) is ShardedCondenser.
//
// A shard's Worker runs in one of two places — the peer kinds:
//
//   in-process   With an empty `workers` list every shard's Worker runs
//                in this process from Start. A crashed shard recovers
//                alone on the next Start; the other shards' snapshots,
//                journals and spools are never touched.
//   remote       With `workers` set, shard i's Worker runs in the worker
//                process at workers[i] (`condensa worker`, behind the
//                wire protocol of shard/worker_server.h).
//
// Both kinds share the routing, the per-shard seeds
// (Router::ShardSeeds), the per-shard ingest order and the gather fold,
// so a clean remote run releases a BIT-IDENTICAL group set to the
// in-process run for the same (seed, shard count, policy).
//
// Membership and failure handling of remote peers:
//
//   register/handshake   Start dials every endpoint and exchanges
//                        Hello/HelloAck. The HelloAck's durable_total
//                        becomes the peer's custody baseline.
//   liveness             A heartbeat thread probes idle peers every
//                        heartbeat_interval_ms; a peer silent past
//                        heartbeat_timeout_ms enters reconnect.
//   reconnect            Redials with runtime::retry exponential
//                        backoff. The re-handshake's durable_total tells
//                        the coordinator exactly which prefix of its
//                        unacknowledged outbox the worker already owns
//                        durably — that prefix is trimmed, the rest is
//                        re-sent. Delivery is exactly-once across any
//                        number of connection drops.
//   handoff on death     When reconnecting fails, the peer is declared
//                        dead and its unacknowledged records are
//                        re-routed among the surviving members
//                        (Router::ShardAmong — deterministic in the
//                        member set). Acked records are NOT re-routed:
//                        they are durable in the dead worker's
//                        checkpoint dir and come back when it rejoins
//                        (or via local takeover). Re-routed in-flight
//                        records can duplicate if the dead worker had
//                        absorbed them before dying; the rejoin
//                        handshake detects exactly how many
//                        (duplicates_detected), so the loss ledger
//                        stays exact: accepted = submitted + duplicates.
//   rejoin               Dead peers are redialed in the background; a
//                        revived worker resumes from its own checkpoint.
//   local takeover       With checkpoint_root set (same filesystem as
//                        the workers), a peer that cannot be revived is
//                        taken over by an in-process Worker on the same
//                        checkpoint dir — recovering its durable state
//                        exactly. On total network failure every shard
//                        degrades this way and the run completes
//                        in-process.
//
// Thread model: Submit/Finish are single-producer — every caller submits
// from one thread (the bit-identity contract needs one arrival order
// anyway). A fleet with remote peers runs one background thread for
// heartbeats and revival; per-peer state is mutex-protected and the
// heartbeat thread only try_locks, so it never delays the ingest path.
// An in-process fleet starts no thread of its own.
//
// Throughput note (docs/scaling.md): dynamic condensation's per-record
// cost grows with the number of live groups G, so splitting one stream
// across N shards cuts each shard's G by ~N and speeds up ingest even on
// a single core. The gather step costs O(total groups) once at Finish.

#ifndef CONDENSA_SHARD_STREAM_SERVICE_H_
#define CONDENSA_SHARD_STREAM_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/pipeline.h"
#include "runtime/retry.h"
#include "shard/coordinator.h"
#include "shard/router.h"
#include "shard/worker.h"

namespace condensa::shard {

struct FabricEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct ShardedStreamConfig {
  // Shard count N (>= 1) and how records map to shards.
  std::size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;

  // Record dimension (>= 1) and indistinguishability level k (>= 2, the
  // streaming runtime's floor).
  std::size_t dim = 0;
  std::size_t group_size = 10;
  core::SplitRule split_rule = core::SplitRule::kMomentConsistent;

  // Shard i checkpoints under <checkpoint_root>/shard-<i>. Required when
  // the shards run in-process. With remote workers it is the root for
  // local takeover of unreachable peers: point it at the tree the
  // workers use (shared filesystem) so takeover recovers their durable
  // state. Empty with remote workers disables takeover — an unreachable
  // peer at Finish is then an error.
  std::string checkpoint_root;
  std::size_t snapshot_interval = 1024;
  bool sync_every_append = true;
  std::size_t queue_capacity = 1024;
  std::size_t batch_size = 32;

  // Root seed; per-shard pipeline seeds come from Router::ShardSeeds, so
  // a fixed (seed, num_shards) replays exactly.
  std::uint64_t seed = 42;

  // Anonymization backend (core/backend.h), stamped into every shard's
  // checkpoints and the gathered set. Remote workers get its id in the
  // Hello; a worker that cannot find the id (core::FindBackend) rejects
  // the session.
  const core::Backend* backend = &core::CondensationBackend();

  // Empty: every shard runs in-process. Otherwise workers[i] serves
  // shard i, and workers.size() must equal num_shards.
  std::vector<FabricEndpoint> workers;

  // Remote peers only. Records per Submit frame: larger batches amortize
  // the per-RPC flush barrier, smaller ones shrink the re-send window
  // after a crash.
  std::size_t wire_batch = 64;
  double connect_timeout_ms = 2000.0;
  double io_timeout_ms = 5000.0;
  // The SubmitAck wait: bounded by the worker's durable flush, not by
  // per-frame I/O, so it sits above the worker's flush_timeout_ms.
  double ack_timeout_ms = 35000.0;
  // Finish condenses and checkpoints on the worker; allow it time.
  double finish_timeout_ms = 60000.0;
  double heartbeat_interval_ms = 200.0;
  // A peer silent this long is put through reconnect, then declared
  // dead.
  double heartbeat_timeout_ms = 1500.0;
  // Backoff schedule between redial attempts (max_attempts bounds each
  // reconnect incident).
  runtime::RetryPolicy reconnect;

  Status Validate() const;
};

// Counters describing the remote peers' life, snapshot via report(). All
// zero for an in-process fleet.
struct FabricReport {
  std::size_t connects = 0;
  std::size_t reconnects = 0;
  std::size_t heartbeats = 0;
  std::size_t heartbeat_misses = 0;
  // Peers declared dead (each one is a handoff incident).
  std::size_t handoffs = 0;
  // Records re-routed off a dead peer to survivors.
  std::size_t rerouted_records = 0;
  // Re-routed records later found to have also been durably absorbed by
  // the dead worker (counted at rejoin/takeover via durable_total).
  std::size_t duplicates_detected = 0;
  std::size_t rejoins = 0;
  std::size_t local_takeovers = 0;

  std::string ToString() const;
};

struct ShardedStreamResult {
  core::CondensedGroupSet groups{0, 0};
  GatherReport gather;
  // One final ledger per shard, in shard order.
  std::vector<runtime::StreamPipelineStats> shard_stats;
  FabricReport report;

  // True iff every shard's zero-silent-loss ledger balances.
  bool Balanced() const;
  // Sum of records accepted / applied across shards.
  std::size_t TotalAccepted() const;
  std::size_t TotalApplied() const;
};

class ShardedStreamService {
 public:
  // Validates the config, then starts (or crash-recovers) every
  // in-process shard, or connects and handshakes every remote worker and
  // starts the heartbeat thread. Any in-process shard failing to start
  // fails the whole service. Remote endpoints that cannot be dialed at
  // Start are handled like any other death: re-routed around, revived in
  // the background, or taken over — Start only fails outright when no
  // shard can accept records at all.
  static StatusOr<std::unique_ptr<ShardedStreamService>> Start(
      ShardedStreamConfig config);

  ShardedStreamService(const ShardedStreamService&) = delete;
  ShardedStreamService& operator=(const ShardedStreamService&) = delete;

  // Joins the heartbeat thread; closes connections (without Finish the
  // workers keep their durable state for the next run).
  ~ShardedStreamService();

  // Shard i's pipeline config, the one record of its parameters: what
  // its in-process Worker (own or takeover) starts from, and what the
  // Hello carries to a remote worker (HelloForShard), which swaps in its
  // own checkpoint root.
  runtime::StreamPipelineConfig shard_config(std::size_t shard) const;

  // Routes one record to its shard. A record whose dimension is not the
  // config's is refused (kInvalidArgument) before it takes an arrival
  // index. Single producer.
  Status Submit(const linalg::Vector& record);

  std::size_t records_submitted() const { return submitted_; }

  // Per-shard ledgers, in shard order: live for shards running
  // in-process, empty for remote ones (their ledgers arrive at Finish).
  std::vector<runtime::StreamPipelineStats> stats() const;

  // Flushes every outbox, drains and checkpoints every shard (over the
  // wire, or in-process), then gathers the shard-local aggregates in
  // shard order into one global k-floor-satisfying set. Callable once.
  StatusOr<ShardedStreamResult> Finish();

  FabricReport report() const;

 private:
  enum class PeerState { kConnected, kDead, kLocal };

  struct Peer {
    std::mutex mu;
    PeerState state = PeerState::kDead;
    net::TcpConnection conn;
    std::string worker_id;
    // True once the first successful handshake fixed base_durable.
    bool baselined = false;
    // durable_total at the first handshake: state from previous runs.
    std::uint64_t base_durable = 0;
    // Records of THIS run known durably delivered to the worker.
    std::uint64_t acked = 0;
    // Accepted-but-unacknowledged records with their arrival indices.
    std::deque<std::pair<std::size_t, linalg::Vector>> outbox;
    double last_ok_ms = 0.0;
    // Consecutive failed revival attempts (drives the backoff schedule).
    std::size_t redial_failures = 0;
    double next_redial_ms = 0.0;
    // The in-process Worker (state == kLocal): the shard's own from Start,
    // or a takeover of an unreachable remote peer.
    std::unique_ptr<Worker> local;
  };

  explicit ShardedStreamService(ShardedStreamConfig config);

  // --- connection management (peer->mu held) ---
  Status HandshakeLocked(std::size_t shard, Peer& peer);
  // Books a successful redial (a rejoin if the peer was dead) in the
  // report and condensa_fabric_reconnects_total together.
  void CountReconnect(std::size_t shard, bool rejoin);
  // Reconnect with backoff; declares the peer dead on exhaustion.
  void ReviveOrDeclareDeadLocked(std::size_t shard, Peer& peer);
  void DeclareDeadLocked(std::size_t shard, Peer& peer);
  // Sends up to wire_batch records from the outbox front and waits for
  // the durable ack; trims the acked prefix.
  Status SendBatchLocked(Peer& peer);
  Status FlushOutboxLocked(Peer& peer, std::size_t low_water);
  // Queues one record on a connected peer's outbox and flushes a full
  // one, reviving (or declaring dead) the peer when the flush fails.
  void EnqueueLocked(std::size_t shard, Peer& peer, std::size_t index,
                     linalg::Vector record);
  // Applies the durable_total learned from a handshake: trims the
  // already-owned outbox prefix and books duplicate detections.
  void AbsorbDurableTotalLocked(Peer& peer, std::uint64_t durable_total);
  // In-process takeover over checkpoint_root.
  Status LocalTakeoverLocked(std::size_t shard, Peer& peer);

  // --- re-routing (takes orphans_mu_, then peer mutexes) ---
  void Orphan(std::size_t index, linalg::Vector record);
  Status DrainOrphans();
  // Finish's pre-gather barrier: loops DrainOrphans + full outbox
  // flushes until no record is in flight anywhere, so that no worker
  // Finish can strand an orphan.
  Status SettleDeliveries();
  std::vector<std::size_t> LiveMembers();

  void HeartbeatLoop();
  Status ProbePeerLocked(std::size_t shard, Peer& peer);

  ShardedStreamConfig config_;
  Router router_;
  // Router::ShardSeeds(seed, shard count), one per shard.
  std::vector<std::uint64_t> shard_seeds_;
  std::vector<std::unique_ptr<Peer>> peers_;

  std::mutex orphans_mu_;
  std::deque<std::pair<std::size_t, linalg::Vector>> orphans_;
  // !orphans_.empty(), written under orphans_mu_ and readable without
  // it, so Submit takes the lock only once some record has been
  // orphaned.
  std::atomic<bool> orphans_pending_{false};

  // Ingest-path backoff jitter and heartbeat-thread jitter draw from
  // separate streams (Rng is not thread-safe).
  Rng backoff_rng_;
  Rng hb_rng_;

  std::size_t submitted_ = 0;
  bool finished_ = false;

  std::atomic<std::size_t> connects_{0};
  std::atomic<std::size_t> reconnects_{0};
  std::atomic<std::size_t> heartbeats_{0};
  std::atomic<std::size_t> heartbeat_misses_{0};
  std::atomic<std::size_t> handoffs_{0};
  std::atomic<std::size_t> rerouted_records_{0};
  std::atomic<std::size_t> duplicates_detected_{0};
  std::atomic<std::size_t> rejoins_{0};
  std::atomic<std::size_t> local_takeovers_{0};

  // Remote fleets only; declared after everything HeartbeatLoop uses.
  std::atomic<bool> shutdown_{false};
  std::thread heartbeat_;
};

}  // namespace condensa::shard

#endif  // CONDENSA_SHARD_STREAM_SERVICE_H_
