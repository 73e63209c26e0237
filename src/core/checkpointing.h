// Crash-safe streaming condensation: snapshot + journal durability.
//
// The paper's deployment model is a server that retains only the condensed
// statistics H and keeps maintaining them over an unbounded stream
// (DynamicGroupMaintenance, Fig. 2). The privacy model forbids retaining
// raw records, so a crash must not force re-reading the stream:
// DurableCondenser makes every acknowledged record recoverable.
//
// Disk layout inside the checkpoint directory (docs/durability.md has the
// byte layouts):
//
//   snapshot-NNNNNN.condensa   full state in the v2 binary format: a
//                              header, the group set and the forming
//                              buffer in the group codec of
//                              core/serialization.h (each group's n, Fs
//                              and upper triangle of Sc), and that
//                              codec's trailer holding the byte length
//                              and a CRC32 of everything before it.
//                              Written atomically (temp + fsync +
//                              rename).
//   journal-NNNNNN.log         append-only record log since snapshot N: a
//                              header naming N and the record dimension
//                              d, then one fsync'd fixed-size entry per
//                              Insert/Remove (a tag byte, d little-endian
//                              doubles, a CRC32 of those bytes).
//
// Commit protocol: a record is journaled (and synced) *before* it is
// applied in memory, so `Insert` returning OK means the record survives a
// crash. Every `snapshot_interval` appends the current state is
// snapshotted under the next sequence number, a fresh journal is opened,
// and the previous generation is deleted.
//
// `Recover` walks snapshots newest-first until one parses, replays the
// matching journal onto it, truncates any torn journal tail (a crash
// mid-append leaves a short or CRC-failing last entry), and returns a
// condenser positioned exactly at the last durable record. `Load` does
// the same walk and replay read-only. Replay is deterministic, so the
// recovered structure is bit-identical to the pre-crash in-memory
// structure at that record.
//
// Both readers also take the v1 text files earlier builds wrote: each
// file's magic picks its reader. `Recover` of a generation whose journal
// is v1 rolls it to v2 at once, so every journal this code appends to is
// v2.

#ifndef CONDENSA_CORE_CHECKPOINTING_H_
#define CONDENSA_CORE_CHECKPOINTING_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "common/status.h"
#include "common/wire.h"
#include "core/dynamic_condenser.h"

namespace condensa::core {

struct DurabilityOptions {
  // Journal appends between automatic snapshots. Must be >= 1.
  std::size_t snapshot_interval = 1024;
  // fsync the journal before acknowledging each record. Turning this off
  // trades the strict durability guarantee for throughput: a crash may
  // lose records that were acknowledged since the last sync.
  bool sync_every_append = true;
};

// The snapshot file: the full state of `condenser` in the v2 binary
// format, read straight from the live structure. Exposed for tests and
// tooling; production code uses DurableCondenser.
std::string SerializeCondenserState(const DynamicCondenser& condenser,
                                    std::size_t sequence);
// Reads a v2 snapshot, or a v1 text snapshot an earlier build wrote; the
// leading magic picks the reader. kDataLoss for a truncated or corrupt
// file (a v2 file whose trailer is missing or disagrees with its bytes).
StatusOr<DynamicCondenser::State> DeserializeCondenserState(
    std::string_view bytes, std::size_t* sequence_out);

// Bytes of the v2 journal header: the magic "condensa-journal v2\n", the
// base sequence (u64) and the record dimension (u32).
inline constexpr std::size_t kJournalHeaderBytes = 20 + 8 + 4;

// Bytes of one v2 journal entry for d-dimensional records: the tag, d
// doubles and the CRC32.
constexpr std::size_t JournalEntryBytes(std::size_t dim) {
  return 1 + 8 * dim + 4;
}

// Appends the v2 journal entry for `record` (tag 'i' insert, 'r' remove)
// to `out`.
void AppendJournalEntry(WireWriter& out, char tag,
                        const linalg::Vector& record);

// Decodes one v2 journal entry of exactly JournalEntryBytes(record->dim())
// bytes into `record`. Returns the tag, or '\0' when `entry` has another
// size or its CRC disagrees with its bytes (a torn or corrupt entry).
char DecodeJournalEntry(std::string_view entry, linalg::Vector* record);

// The record line of the runtime spool (tag 's') and of the v1 journal
// (tags 'i' insert, 'r' remove): "<tag> v0 ... vd-1 .\n". The trailing
// "." marks a complete entry; a line missing it (or its newline) is a
// torn write. Appends the line for `record` to `out`.
void AppendRecordLine(std::string& out, char tag,
                      const linalg::Vector& record);

// Parses one record line (without its newline) carrying exactly
// `record->dim()` values into `record`. Returns the tag, or '\0' when
// the line is malformed or torn.
char ParseRecordLine(std::string_view line, linalg::Vector* record);

class DurableCondenser {
 public:
  DurableCondenser(DurableCondenser&&) = default;
  DurableCondenser& operator=(DurableCondenser&&) = default;

  // Starts a fresh durable condenser in `dir` (created when missing) and
  // writes the initial snapshot. Fails with kFailedPrecondition when the
  // directory already holds checkpoint state — use Recover (or Open).
  static StatusOr<DurableCondenser> Create(std::size_t dim,
                                           DynamicCondenserOptions options,
                                           DurabilityOptions durability,
                                           const std::string& dir);

  // Restores from `dir`: loads the newest parseable snapshot, replays its
  // journal, truncates any torn tail, deletes generations older than the
  // chosen one, and rolls a v1 journal to a v2 generation (one snapshot;
  // its failure fails Recover). Journals newer than the chosen snapshot (possible
  // when recovery fell back past a corrupt snapshot) are preserved under
  // a ".orphan" suffix, never deleted. Recover is idempotent: running it
  // twice against the same directory leaves the second run a no-op.
  // NotFound when the directory holds no checkpoint state at all;
  // kDataLoss when state exists but no snapshot is recoverable.
  static StatusOr<DurableCondenser> Recover(const std::string& dir,
                                            DynamicCondenserOptions options,
                                            DurabilityOptions durability);

  // The state Recover would restore from `dir`, loaded without writing
  // to the directory: the newest parseable snapshot with its journal
  // replayed up to the first torn or malformed entry. Nothing is
  // truncated, pruned or renamed, so it is safe against a directory a
  // live writer is still appending to. The condenser runs under the
  // backend the snapshot is stamped with (core::StampedBackend);
  // options.backend is ignored. Fails as Recover does for a directory
  // without a recoverable snapshot, and as StampedBackend for a stamp
  // this build does not provide.
  static StatusOr<DynamicCondenser> Load(const std::string& dir,
                                         DynamicCondenserOptions options);

  // Recover when `dir` has state, Create otherwise. The entry point for
  // "restart the server and keep going". `dim` must match recovered state.
  static StatusOr<DurableCondenser> Open(std::size_t dim,
                                         DynamicCondenserOptions options,
                                         DurabilityOptions durability,
                                         const std::string& dir);

  // Statically condenses `initial` as the structure's seed (paper's
  // H = CreateCondensedGroups(k, D)), then snapshots. Must come before any
  // Insert, at most once.
  Status Bootstrap(const std::vector<linalg::Vector>& initial, Rng& rng);

  // Journals the record (fsync), then applies it. OK return == durable.
  // A non-OK return means the record is NOT applied (so it is safe to
  // retry): a failed interval snapshot after a successful apply is
  // deferred to the next append, not surfaced — see
  // MaybeSnapshotAfterAppend.
  Status Insert(const linalg::Vector& record);

  // Journals the deletion (fsync), then applies it. Same error contract
  // as Insert.
  Status Remove(const linalg::Vector& record);

  // Forces a snapshot now regardless of the interval.
  Status Checkpoint();

  // The wrapped in-memory condenser (read-only).
  const DynamicCondenser& condenser() const { return condenser_; }
  const CondensedGroupSet& groups() const { return condenser_.groups(); }
  std::size_t records_seen() const { return condenser_.records_seen(); }

  // Current snapshot sequence number and journal appends since it.
  std::size_t snapshot_sequence() const { return sequence_; }
  std::size_t appends_since_snapshot() const { return appends_; }

  const std::string& dir() const { return dir_; }

  // Finalizes the stream and returns the group set (see
  // DynamicCondenser::TakeGroups). Checkpoint files are left on disk.
  CondensedGroupSet TakeGroups() { return condenser_.TakeGroups(); }

 private:
  DurableCondenser(DynamicCondenser condenser, DurabilityOptions durability,
                   std::string dir)
      : condenser_(std::move(condenser)),
        durability_(durability),
        dir_(std::move(dir)) {}

  // Appends one v2 journal entry durably.
  Status AppendJournal(char op, const linalg::Vector& record);

  // Rebuilds the in-memory condenser from the on-disk snapshot + journal.
  // Called after a failed apply, which can leave the in-memory structure
  // partially mutated (e.g. the record added but its 2k split aborted);
  // without the rebuild a later Checkpoint would persist that divergent
  // state. Poisons the instance when the rebuild itself fails.
  Status ReloadFromDisk();

  // Writes snapshot `sequence_ + 1`, rolls the journal, prunes the old
  // generation.
  Status WriteSnapshot();

  // Interval bookkeeping after a successful journaled apply. A snapshot
  // failure here is deferred (counted, retried on the next append) rather
  // than returned: the triggering record is already durable, and failing
  // its Insert/Remove would invite a duplicating retry.
  void MaybeSnapshotAfterAppend();

  DynamicCondenser condenser_;
  DurabilityOptions durability_;
  std::string dir_;
  AppendFile journal_;
  std::size_t sequence_ = 0;
  std::size_t appends_ = 0;
  // Bytes of valid journal content, so a failed apply can truncate the
  // entry it journaled (journal contents always match applied state).
  std::size_t journal_bytes_ = 0;
  // Set when a post-apply-failure rebuild failed too: memory and disk may
  // disagree, so every further durable operation is refused. The caller
  // recovers by constructing a fresh instance via Recover.
  bool poisoned_ = false;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_CHECKPOINTING_H_
