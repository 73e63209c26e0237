#include "core/checkpointing.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/serialization.h"
#include "obs/metrics.h"
#include "obs/timing.h"

namespace condensa::core {
namespace {

struct CheckpointMetrics {
  obs::Counter& snapshots = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_snapshots_total");
  obs::Counter& snapshot_bytes = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_snapshot_bytes_total");
  obs::Counter& journal_appends = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_journal_appends_total");
  obs::Counter& journal_bytes = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_journal_bytes_total");
  obs::Counter& fsyncs = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_journal_fsyncs_total");
  obs::Counter& recoveries = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_recoveries_total");
  obs::Counter& recovery_replayed = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_recovery_replayed_records_total");
  obs::Counter& deferred_snapshots = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_deferred_snapshots_total");
  obs::Histogram& snapshot_seconds = obs::DefaultRegistry().GetHistogram(
      "condensa_checkpoint_snapshot_seconds");

  static CheckpointMetrics& Get() {
    static CheckpointMetrics metrics;
    return metrics;
  }
};

// v2 magics end in a newline so `head -c` of a file names its format.
constexpr std::string_view kSnapshotMagic = "condensa-snapshot v2\n";
constexpr std::string_view kJournalMagic = "condensa-journal v2\n";
// v1 text files, still read (see DeserializeSnapshotV1 and the journal
// replay in LoadCheckpoint).
constexpr std::string_view kSnapshotMagicV1 = "condensa-snapshot v1";
constexpr std::string_view kJournalMagicV1 = "condensa-journal v1";
constexpr std::string_view kGroupsMagic = "condensa-groups v1";

static_assert(kJournalMagic.size() + 8 + 4 == kJournalHeaderBytes);
constexpr std::size_t kCrcBytes = 4;
// Bits of the v2 snapshot's flags byte.
constexpr std::uint8_t kBootstrappedFlag = 1;
constexpr std::uint8_t kFormingFlag = 2;

std::string SequenceTag(std::size_t sequence) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%06zu", sequence);
  return buffer;
}

std::string SnapshotName(std::size_t sequence) {
  return "snapshot-" + SequenceTag(sequence) + ".condensa";
}

std::string JournalName(std::size_t sequence) {
  return "journal-" + SequenceTag(sequence) + ".log";
}

// Extracts the sequence number from a checkpoint file name; false when the
// name is not of the given kind.
bool ParseSequence(const std::string& name, const std::string& prefix,
                   const std::string& suffix, std::size_t* sequence) {
  if (!StartsWith(name, prefix) || name.size() <= prefix.size() + suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  return ParseSize(name.substr(prefix.size(),
                              name.size() - prefix.size() - suffix.size()),
                   sequence);
}

// The v2 journal header: magic, base sequence (u64) and record dimension
// (u32). Replay compares a journal's first bytes with the header it
// expects, so a torn or foreign header is never mistaken for entries.
std::string JournalHeader(std::size_t sequence, std::size_t dim) {
  WireWriter out;
  out.PutBytes(kJournalMagic);
  out.PutU64(sequence);
  out.PutCount(dim);
  return out.Take();
}

std::string JournalHeaderV1(std::size_t sequence) {
  return std::string(kJournalMagicV1) + " base " + std::to_string(sequence) +
         "\n";
}

StatusOr<DynamicCondenser::State> DeserializeSnapshotV2(
    std::string_view bytes, std::size_t* sequence_out) {
  CONDENSA_ASSIGN_OR_RETURN(std::string_view body,
                            CheckTrailer(bytes, kSnapshotMagic, "snapshot"));
  WireReader in(body);
  std::uint64_t sequence = 0, records = 0, splits = 0, merges = 0;
  std::uint8_t flags = 0;
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&sequence));
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&records));
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&splits));
  CONDENSA_RETURN_IF_ERROR(in.ReadU64(&merges));
  CONDENSA_RETURN_IF_ERROR(in.ReadU8(&flags));
  if ((flags & ~(kBootstrappedFlag | kFormingFlag)) != 0) {
    return DataLossError("unknown snapshot flags");
  }

  DynamicCondenser::State state;
  CONDENSA_ASSIGN_OR_RETURN(state.groups, ReadGroupSet(in));
  if ((flags & kFormingFlag) != 0) {
    CONDENSA_ASSIGN_OR_RETURN(
        state.forming,
        ReadGroup(in, state.groups.dim(), state.groups.num_groups()));
  }
  CONDENSA_RETURN_IF_ERROR(in.ExpectDone());
  state.records_seen = records;
  state.split_count = splits;
  state.merge_count = merges;
  state.bootstrapped = (flags & kBootstrappedFlag) != 0;
  if (sequence_out != nullptr) {
    *sequence_out = sequence;
  }
  return state;
}

// The v1 text snapshot: a header line, the group set and the forming
// buffer as condensa-groups v1 sections (core/serialization.h), and an
// "end" marker.
StatusOr<DynamicCondenser::State> DeserializeSnapshotV1(
    std::string_view text, std::size_t* sequence_out) {
  std::string_view rest = text;
  if (rest.empty() || StripWhitespace(NextLine(&rest)) != kSnapshotMagicV1) {
    return InvalidArgumentError("missing condensa-snapshot v1 header");
  }

  std::size_t seq = 0, records = 0, splits = 0, merges = 0,
              bootstrapped = 0, forming = 0;
  auto next_field = [&rest](std::string_view keyword, std::size_t* value) {
    return NextToken(&rest) == keyword && ParseSize(NextToken(&rest), value);
  };
  if (!next_field("seq", &seq) || !next_field("records", &records) ||
      !next_field("splits", &splits) || !next_field("merges", &merges) ||
      !next_field("bootstrapped", &bootstrapped) || bootstrapped > 1 ||
      !next_field("forming", &forming) || forming > 1) {
    return DataLossError("malformed snapshot header line");
  }

  // The remainder is one or two embedded group-set sections plus a
  // trailing "end" marker that proves the snapshot was written fully.
  std::size_t body_begin = text.find(kGroupsMagic);
  if (body_begin == std::string_view::npos) {
    return DataLossError("snapshot missing group-set section");
  }
  std::string_view remainder = text.substr(body_begin);
  std::size_t end_marker = remainder.rfind("\nend");
  if (end_marker == std::string_view::npos ||
      StripWhitespace(remainder.substr(end_marker)) != "end") {
    return DataLossError("snapshot missing end marker (truncated write?)");
  }
  remainder = remainder.substr(0, end_marker + 1);  // keep final newline

  std::size_t forming_begin =
      remainder.find(kGroupsMagic, kGroupsMagic.size());
  if ((forming == 1) != (forming_begin != std::string_view::npos)) {
    return DataLossError("snapshot forming flag disagrees with body");
  }

  DynamicCondenser::State state;
  if (forming == 1) {
    CONDENSA_ASSIGN_OR_RETURN(
        state.groups,
        DeserializeGroupSet(remainder.substr(0, forming_begin)));
    CONDENSA_ASSIGN_OR_RETURN(
        CondensedGroupSet wrapper,
        DeserializeGroupSet(remainder.substr(forming_begin)));
    if (wrapper.num_groups() != 1) {
      return DataLossError("snapshot forming section must hold one group");
    }
    if (wrapper.backend_id() != state.groups.backend_id()) {
      return DataLossError(
          "snapshot forming section's backend disagrees with the body");
    }
    state.forming = wrapper.group(0);
  } else {
    CONDENSA_ASSIGN_OR_RETURN(state.groups,
                              DeserializeGroupSet(remainder));
  }
  state.records_seen = records;
  state.split_count = splits;
  state.merge_count = merges;
  state.bootstrapped = bootstrapped == 1;
  if (sequence_out != nullptr) {
    *sequence_out = seq;
  }
  return state;
}

}  // namespace

void AppendRecordLine(std::string& out, char tag,
                      const linalg::Vector& record) {
  out += tag;
  for (std::size_t j = 0; j < record.dim(); ++j) {
    out += ' ';
    AppendDouble(out, record[j]);
  }
  out += " .\n";
}

char ParseRecordLine(std::string_view line, linalg::Vector* record) {
  const std::string_view tag = NextToken(&line);
  if (tag.size() != 1) return '\0';
  for (std::size_t j = 0; j < record->dim(); ++j) {
    if (!ParseDouble(NextToken(&line), &(*record)[j])) return '\0';
  }
  // Terminator, then nothing else.
  if (NextToken(&line) != "." || !NextToken(&line).empty()) return '\0';
  return tag[0];
}

std::string SerializeCondenserState(const DynamicCondenser& condenser,
                                    std::size_t sequence) {
  const CondensedGroupSet& groups = condenser.groups();
  const std::optional<GroupStatistics>& forming_group = condenser.forming();
  const bool forming = forming_group.has_value() && forming_group->count() > 0;
  WireWriter out;
  out.Reserve(kSnapshotMagic.size() + 64 + groups.backend_id().size() +
              (groups.num_groups() + 1) * GroupBytes(groups.dim()) +
              kTrailerBytes);
  out.PutBytes(kSnapshotMagic);
  out.PutU64(sequence);
  out.PutU64(condenser.records_seen());
  out.PutU64(condenser.split_count());
  out.PutU64(condenser.merge_count());
  out.PutU8((condenser.bootstrapped() ? kBootstrappedFlag : 0) |
            (forming ? kFormingFlag : 0));
  PutGroupSet(out, groups);
  if (forming) {
    PutGroup(out, *forming_group);
  }
  PutTrailer(out);
  return out.Take();
}

StatusOr<DynamicCondenser::State> DeserializeCondenserState(
    std::string_view bytes, std::size_t* sequence_out) {
  if (StartsWith(bytes, kSnapshotMagic)) {
    return DeserializeSnapshotV2(bytes, sequence_out);
  }
  return DeserializeSnapshotV1(bytes, sequence_out);
}

void AppendJournalEntry(WireWriter& out, char tag,
                        const linalg::Vector& record) {
  const std::size_t begin = out.size();
  out.PutU8(static_cast<std::uint8_t>(tag));
  for (std::size_t j = 0; j < record.dim(); ++j) {
    out.PutDouble(record[j]);
  }
  out.PutU32(Crc32(std::string_view(out.buffer()).substr(begin)));
}

char DecodeJournalEntry(std::string_view entry, linalg::Vector* record) {
  if (entry.size() != JournalEntryBytes(record->dim())) return '\0';
  WireReader in(entry);
  std::uint8_t tag = 0;
  std::uint32_t crc = 0;
  // The size check above makes every read succeed.
  bool ok = in.ReadU8(&tag).ok();
  for (std::size_t j = 0; ok && j < record->dim(); ++j) {
    ok = in.ReadDouble(&(*record)[j]).ok();
  }
  ok = ok && in.ReadU32(&crc).ok();
  if (!ok || crc != Crc32(entry.substr(0, entry.size() - kCrcBytes))) {
    return '\0';
  }
  return static_cast<char>(tag);
}

StatusOr<DurableCondenser> DurableCondenser::Create(
    std::size_t dim, DynamicCondenserOptions options,
    DurabilityOptions durability, const std::string& dir) {
  if (dim == 0) {
    return InvalidArgumentError("record dimension must be positive");
  }
  if (durability.snapshot_interval == 0) {
    return InvalidArgumentError("snapshot_interval must be >= 1");
  }
  CONDENSA_RETURN_IF_ERROR(CreateDirectories(dir));
  CONDENSA_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                            ListDirectory(dir));
  for (const std::string& name : entries) {
    std::size_t ignored = 0;
    if (ParseSequence(name, "snapshot-", ".condensa", &ignored) ||
        ParseSequence(name, "journal-", ".log", &ignored)) {
      return FailedPreconditionError(
          dir + " already holds checkpoint state; use Recover or Open");
    }
  }

  DurableCondenser durable(DynamicCondenser(dim, options), durability, dir);
  CONDENSA_RETURN_IF_ERROR(durable.WriteSnapshot());
  return durable;
}

namespace {

// The newest snapshot in a checkpoint directory that parses cleanly, and
// the directory listing it was chosen from.
struct NewestSnapshot {
  DynamicCondenser::State state;
  std::size_t sequence = 0;
  std::vector<std::string> entries;
};

// Walks the snapshots of `dir` newest-first until one parses. NotFound
// when the directory holds no checkpoint state at all; kDataLoss when
// state exists but no snapshot is recoverable.
StatusOr<NewestSnapshot> LoadNewestSnapshot(const std::string& dir) {
  CONDENSA_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                            ListDirectory(dir));
  std::vector<std::size_t> snapshots;
  bool any_state = false;
  for (const std::string& name : entries) {
    std::size_t sequence = 0;
    if (ParseSequence(name, "snapshot-", ".condensa", &sequence)) {
      snapshots.push_back(sequence);
      any_state = true;
    } else if (ParseSequence(name, "journal-", ".log", &sequence)) {
      any_state = true;
    }
  }
  if (!any_state) {
    return NotFoundError(dir + " holds no checkpoint state");
  }
  if (snapshots.empty()) {
    return DataLossError(dir + " has journals but no snapshot");
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  for (std::size_t sequence : snapshots) {
    auto text = ReadFileToString(dir + "/" + SnapshotName(sequence));
    if (!text.ok()) continue;
    std::size_t embedded = 0;
    auto parsed = DeserializeCondenserState(*text, &embedded);
    if (!parsed.ok() || embedded != sequence) continue;
    return NewestSnapshot{std::move(parsed).value(), sequence,
                          std::move(entries)};
  }
  return DataLossError(dir + " has no recoverable snapshot");
}

// What a read-only load of a checkpoint directory finds: the condenser
// positioned at the last complete journal entry of the newest parseable
// snapshot's generation, and where that journal's valid prefix ends.
struct LoadedCheckpoint {
  DynamicCondenser condenser;
  std::size_t sequence = 0;
  // The directory listing the snapshot was chosen from.
  std::vector<std::string> entries;
  // Bytes in the chosen journal, and the end of its valid prefix (0 when
  // the journal or its header is missing).
  std::size_t journal_size = 0;
  std::size_t valid_offset = 0;
  std::size_t replayed = 0;
  // The journal is a v1 text journal.
  bool journal_v1 = false;
};

// Loads the newest parseable snapshot of `dir` and replays its journal
// up to the first torn or malformed entry. With `use_stamp` the
// condenser runs under the backend the snapshot is stamped with instead
// of options.backend. Writes nothing.
StatusOr<LoadedCheckpoint> LoadCheckpoint(const std::string& dir,
                                          DynamicCondenserOptions options,
                                          bool use_stamp) {
  CONDENSA_ASSIGN_OR_RETURN(NewestSnapshot newest, LoadNewestSnapshot(dir));
  if (use_stamp) {
    CONDENSA_ASSIGN_OR_RETURN(options.backend,
                              StampedBackend(newest.state.groups));
  }
  CONDENSA_ASSIGN_OR_RETURN(
      DynamicCondenser condenser,
      DynamicCondenser::FromState(std::move(newest.state), options));
  LoadedCheckpoint loaded{std::move(condenser), newest.sequence,
                          std::move(newest.entries)};

  std::string content;
  if (auto read = ReadFileToString(dir + "/" + JournalName(loaded.sequence));
      read.ok()) {
    content = std::move(read).value();
  }
  loaded.journal_size = content.size();
  const std::size_t dim = loaded.condenser.dim();
  const std::string header = JournalHeader(loaded.sequence, dim);
  const std::string header_v1 = JournalHeaderV1(loaded.sequence);
  std::size_t offset = 0;
  if (StartsWith(content, header)) {
    offset = header.size();
  } else if (StartsWith(content, header_v1)) {
    offset = header_v1.size();
    loaded.journal_v1 = true;
  } else {
    return loaded;
  }
  const std::string_view journal = content;
  const std::size_t entry_bytes = JournalEntryBytes(dim);
  linalg::Vector record(dim);
  while (offset < journal.size()) {
    // A torn tail is a short last entry (v2) or a line that never got
    // its newline (v1); a corrupt entry fails its CRC or parse.
    std::size_t entry_end = 0;
    char op = '\0';
    if (loaded.journal_v1) {
      entry_end = journal.find('\n', offset);
      if (entry_end == std::string_view::npos) break;
      op = ParseRecordLine(journal.substr(offset, entry_end - offset),
                           &record);
      ++entry_end;
    } else {
      if (journal.size() - offset < entry_bytes) break;
      entry_end = offset + entry_bytes;
      op = DecodeJournalEntry(journal.substr(offset, entry_bytes), &record);
    }
    if (op != 'i' && op != 'r') {
      break;  // malformed entry: the valid prefix ends here
    }
    Status applied = op == 'i' ? loaded.condenser.Insert(record)
                               : loaded.condenser.Remove(record);
    if (!applied.ok()) {
      // A well-formed entry that fails to apply is NOT a crash artifact
      // — the bytes are fine, the condenser (or an injected fault)
      // refused the operation. Treating it as the end of the valid
      // prefix would let Recover destroy acknowledged records, so the
      // load fails and the caller retries instead.
      return Status(applied.code(),
                    "journal replay failed at entry " +
                        std::to_string(loaded.replayed) + ": " +
                        applied.message());
    }
    offset = entry_end;
    ++loaded.replayed;
  }
  loaded.valid_offset = offset;
  return loaded;
}

}  // namespace

StatusOr<DynamicCondenser> DurableCondenser::Load(
    const std::string& dir, DynamicCondenserOptions options) {
  CONDENSA_ASSIGN_OR_RETURN(LoadedCheckpoint loaded,
                            LoadCheckpoint(dir, options, /*use_stamp=*/true));
  return std::move(loaded.condenser);
}

StatusOr<DurableCondenser> DurableCondenser::Recover(
    const std::string& dir, DynamicCondenserOptions options,
    DurabilityOptions durability) {
  if (durability.snapshot_interval == 0) {
    return InvalidArgumentError("snapshot_interval must be >= 1");
  }
  CONDENSA_ASSIGN_OR_RETURN(LoadedCheckpoint loaded,
                            LoadCheckpoint(dir, options, /*use_stamp=*/false));
  const std::size_t chosen = loaded.sequence;
  DurableCondenser durable(std::move(loaded.condenser), durability, dir);
  durable.sequence_ = chosen;

  // Re-open the journal for appending, repairing the torn tail (or a
  // missing/corrupt header) in place.
  CONDENSA_ASSIGN_OR_RETURN(durable.journal_,
                            AppendFile::Open(dir + "/" + JournalName(chosen)));
  std::size_t valid_offset = loaded.valid_offset;
  if (valid_offset != loaded.journal_size || valid_offset == 0) {
    CONDENSA_RETURN_IF_ERROR(durable.journal_.Truncate(valid_offset));
    if (valid_offset == 0) {
      const std::string header =
          JournalHeader(chosen, durable.condenser_.dim());
      CONDENSA_RETURN_IF_ERROR(durable.journal_.Append(header));
      CheckpointMetrics::Get().journal_bytes.Increment(header.size());
      valid_offset = header.size();
    }
    CONDENSA_RETURN_IF_ERROR(durable.journal_.Sync());
  }
  durable.journal_bytes_ = valid_offset;
  durable.appends_ = loaded.replayed;
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  metrics.recoveries.Increment();
  metrics.recovery_replayed.Increment(loaded.replayed);

  // Prune stale generations and leftover temp files (best effort). Only
  // generations OLDER than the chosen one are stale. A NEWER generation
  // exists when recovery fell back past a corrupt snapshot-(N+1) — and
  // journal-(N+1) may then hold acknowledged records. Deleting those
  // files would destroy that evidence and make the first recovery
  // destructive (a second run would see different state); instead newer
  // journals are set aside under a ".orphan" suffix, which keeps their
  // bytes on disk but hides them from sequence scanning (so a later
  // snapshot roll cannot truncate them either). Running Recover again on
  // the resulting directory is a no-op.
  for (const std::string& name : loaded.entries) {
    std::size_t sequence = 0;
    const bool temp = name.find(".tmp.") != std::string::npos;
    const bool old_snapshot =
        ParseSequence(name, "snapshot-", ".condensa", &sequence) &&
        sequence < chosen;
    const bool old_journal =
        ParseSequence(name, "journal-", ".log", &sequence) &&
        sequence < chosen;
    if (temp || old_snapshot || old_journal) {
      RemoveFile(dir + "/" + name);
      continue;
    }
    const bool newer_journal =
        ParseSequence(name, "journal-", ".log", &sequence) &&
        sequence > chosen;
    if (newer_journal) {
      std::string target = dir + "/" + name + ".orphan";
      for (int attempt = 1; PathExists(target); ++attempt) {
        target = dir + "/" + name + ".orphan." + std::to_string(attempt);
      }
      std::rename((dir + "/" + name).c_str(), target.c_str());
    }
  }
  // A v1 journal an earlier build wrote is rolled to a v2 generation now,
  // so appends only ever write v2 entries. The roll comes after the
  // prune: a newer journal set aside above would otherwise be truncated
  // by the roll's journal-(N+1). A failed roll removes its snapshot and
  // leaves the repaired v1 generation for the next Recover.
  if (loaded.journal_v1) {
    CONDENSA_RETURN_IF_ERROR(durable.WriteSnapshot());
  }
  return durable;
}

StatusOr<DurableCondenser> DurableCondenser::Open(
    std::size_t dim, DynamicCondenserOptions options,
    DurabilityOptions durability, const std::string& dir) {
  auto recovered = Recover(dir, options, durability);
  if (recovered.ok()) {
    if (recovered->condenser().dim() != dim) {
      return InvalidArgumentError(
          "checkpoint state in " + dir + " has dimension " +
          std::to_string(recovered->condenser().dim()) + ", expected " +
          std::to_string(dim));
    }
    return recovered;
  }
  if (IsNotFound(recovered.status())) {
    return Create(dim, options, durability, dir);
  }
  return recovered.status();
}

Status DurableCondenser::Bootstrap(
    const std::vector<linalg::Vector>& initial, Rng& rng) {
  if (poisoned_) {
    return FailedPreconditionError(
        "durable condenser is unusable after a failed rebuild; Recover");
  }
  Status applied = condenser_.Bootstrap(initial, rng);
  if (!applied.ok()) {
    // A failed static condensation can leave partial in-memory state that
    // no journal entry describes; rebuild from disk before continuing.
    CONDENSA_RETURN_IF_ERROR(ReloadFromDisk());
    return applied;
  }
  // The journal cannot express a static condensation (it is randomized);
  // the bootstrap becomes durable with this snapshot.
  return WriteSnapshot();
}

Status DurableCondenser::AppendJournal(char op,
                                       const linalg::Vector& record) {
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("checkpoint.journal_append"));
  WireWriter writer;
  writer.Reserve(JournalEntryBytes(record.dim()));
  AppendJournalEntry(writer, op, record);
  const std::string entry = writer.Take();
  Status status = journal_.Append(entry);
  if (status.ok() && durability_.sync_every_append) {
    status = journal_.Sync();
    if (status.ok()) {
      CheckpointMetrics::Get().fsyncs.Increment();
    }
  }
  if (!status.ok()) {
    // The entry may be partially (torn write) or even fully (failed sync)
    // on disk. Roll it back so journal_bytes_ stays the exact length of
    // the durable content — otherwise a later apply-failure truncation
    // would chop into entries acknowledged after this orphan (best
    // effort; a crash before the repair is healed by recovery's
    // torn-tail truncation instead).
    journal_.Truncate(journal_bytes_);
    journal_.Sync();
    return status;
  }
  journal_bytes_ += entry.size();
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  metrics.journal_appends.Increment();
  metrics.journal_bytes.Increment(entry.size());
  return OkStatus();
}

Status DurableCondenser::ReloadFromDisk() {
  auto reloaded = Recover(dir_, condenser_.options(), durability_);
  if (!reloaded.ok()) {
    // Memory and disk may now disagree; refuse all further durable
    // operations so a later Checkpoint cannot persist the divergence.
    poisoned_ = true;
    journal_.Close();
    return reloaded.status();
  }
  *this = std::move(reloaded).value();
  return OkStatus();
}

Status DurableCondenser::Insert(const linalg::Vector& record) {
  if (poisoned_) {
    return FailedPreconditionError(
        "durable condenser is unusable after a failed rebuild; Recover");
  }
  if (record.dim() != condenser_.dim()) {
    return InvalidArgumentError("record dimension mismatch");
  }
  const std::size_t offset_before = journal_bytes_;
  CONDENSA_RETURN_IF_ERROR(AppendJournal('i', record));
  Status applied = condenser_.Insert(record);
  if (!applied.ok()) {
    // Keep journal == applied state: drop the entry we could not apply,
    // then rebuild memory from disk — the failed apply may have left the
    // structure partially mutated (record added, 2k split aborted).
    journal_.Truncate(offset_before);
    journal_.Sync();
    journal_bytes_ = offset_before;
    CONDENSA_RETURN_IF_ERROR(ReloadFromDisk());
    return applied;
  }
  MaybeSnapshotAfterAppend();
  return OkStatus();
}

Status DurableCondenser::Remove(const linalg::Vector& record) {
  if (poisoned_) {
    return FailedPreconditionError(
        "durable condenser is unusable after a failed rebuild; Recover");
  }
  if (record.dim() != condenser_.dim()) {
    return InvalidArgumentError("record dimension mismatch");
  }
  const std::size_t offset_before = journal_bytes_;
  CONDENSA_RETURN_IF_ERROR(AppendJournal('r', record));
  Status applied = condenser_.Remove(record);
  if (!applied.ok()) {
    // Same hazard as Insert: a failed Remove may have merged groups
    // before its resplit aborted. Roll back the entry and rebuild.
    journal_.Truncate(offset_before);
    journal_.Sync();
    journal_bytes_ = offset_before;
    CONDENSA_RETURN_IF_ERROR(ReloadFromDisk());
    return applied;
  }
  MaybeSnapshotAfterAppend();
  return OkStatus();
}

void DurableCondenser::MaybeSnapshotAfterAppend() {
  if (++appends_ < durability_.snapshot_interval) {
    return;
  }
  Status snapshot = WriteSnapshot();
  if (!snapshot.ok()) {
    // The record that triggered this snapshot is journaled and applied —
    // acknowledging it is correct even though the compaction step failed.
    // Surfacing the error would make callers retry an already-durable
    // record (a duplicate insert). appends_ stays >= the interval, so the
    // next append retries the snapshot; Checkpoint() still reports errors.
    CheckpointMetrics::Get().deferred_snapshots.Increment();
  }
}

Status DurableCondenser::Checkpoint() {
  if (poisoned_) {
    return FailedPreconditionError(
        "durable condenser is unusable after a failed rebuild; Recover");
  }
  return WriteSnapshot();
}

Status DurableCondenser::WriteSnapshot() {
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("checkpoint.snapshot"));
  CheckpointMetrics& metrics = CheckpointMetrics::Get();
  obs::ScopedTimer snapshot_timer(metrics.snapshot_seconds);
  const bool initial = !journal_.is_open();
  const std::size_t next = initial ? sequence_ : sequence_ + 1;
  const std::string snapshot_path = dir_ + "/" + SnapshotName(next);
  const std::string serialized =
      SerializeCondenserState(condenser_, next);
  CONDENSA_RETURN_IF_ERROR(WriteFileAtomic(snapshot_path, serialized));
  metrics.snapshots.Increment();
  metrics.snapshot_bytes.Increment(serialized.size());

  // Roll the journal. If this fails the new snapshot must not stay
  // visible: records acknowledged afterwards would land in the old
  // journal, which recovery (keyed to the newest snapshot) ignores.
  const std::string header = JournalHeader(next, condenser_.dim());
  auto rolled = AppendFile::Open(dir_ + "/" + JournalName(next),
                                 /*truncate=*/true);
  Status roll_status =
      rolled.ok() ? rolled->Append(header) : rolled.status();
  if (roll_status.ok()) {
    roll_status = rolled->Sync();
  }
  if (!roll_status.ok()) {
    if (!initial) {
      RemoveFile(snapshot_path);
    }
    return roll_status;
  }
  journal_ = std::move(rolled).value();
  journal_bytes_ = header.size();
  metrics.journal_bytes.Increment(header.size());

  if (!initial) {
    // Previous generation is now redundant (best-effort cleanup).
    RemoveFile(dir_ + "/" + SnapshotName(sequence_));
    RemoveFile(dir_ + "/" + JournalName(sequence_));
  }
  sequence_ = next;
  appends_ = 0;
  return OkStatus();
}

}  // namespace condensa::core
