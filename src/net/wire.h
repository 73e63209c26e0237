// Wire message payloads for the shard fabric protocol.
//
// Each FrameType (net/frame.h) carries one of the payload structs below,
// encoded with WireWriter and decoded with WireReader (common/wire.h).
// The codecs are little-endian, fixed-width, and bounds-checked: every
// read validates the remaining byte count before touching memory, and
// every length prefix is validated against the bytes actually present
// before any allocation — the same hardening contract as the frame
// header. Decoding failures are kDataLoss.
//
// Records travel as raw IEEE-754 bit patterns (u64 per coordinate), so a
// record round-trips bit-exactly — the foundation of the fabric's
// bit-identical-release guarantee.

#ifndef CONDENSA_NET_WIRE_H_
#define CONDENSA_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/wire.h"
#include "linalg/vector.h"
#include "runtime/pipeline.h"

namespace condensa::net {

// ---------------------------------------------------------------------------
// Message payloads, one per FrameType.

// Coordinator -> worker. Opens a session: the worker builds (or recovers)
// its shard::Worker from exactly these parameters, so a rejoining worker
// is reconstructed identically to the original.
struct HelloMessage {
  std::uint64_t shard_id = 0;
  std::uint64_t dim = 0;
  std::uint64_t group_size = 0;
  std::uint16_t split_rule = 0;
  std::uint64_t snapshot_interval = 1024;
  std::uint8_t sync_every_append = 0;
  std::uint64_t queue_capacity = 1024;
  std::uint64_t batch_size = 32;
  // This shard's pipeline seed, from Router::ShardSeeds so the fabric
  // matches the in-process service.
  std::uint64_t seed = 0;
  // Anonymization backend id (docs/backends.md). Travels in the hello so
  // every fabric worker maintains (and stamps its checkpoints with) the
  // same backend the coordinator runs; a worker that cannot resolve the
  // id rejects the session instead of producing a mixed release.
  std::string backend = "condensation";
};

// Worker -> coordinator. `durable_total` is the number of records already
// durably in this worker's custody (recovered from its checkpoint dir) —
// the coordinator uses it to trim the already-applied prefix of any
// unacknowledged backlog on reconnect, restoring exactly-once delivery.
struct HelloAckMessage {
  std::string worker_id;
  std::uint64_t durable_total = 0;
};

// Coordinator -> worker. A batch of records; `base_sequence` is the
// stream position of records[0] within this shard's substream (used only
// for diagnostics — ordering is carried by the connection).
// Caps on a Submit batch's variable-length fields, enforced by
// DecodeSubmit before allocation (a corrupt count cannot drive
// per-element work) and by ShardedStreamConfig::Validate (a legal config
// can never build a batch that EncodeFrame's payload cap rejects).
inline constexpr std::uint64_t kMaxRecordsPerSubmit = 1u << 20;
inline constexpr std::uint64_t kMaxWireDim = 1u << 16;
// Fixed bytes preceding the packed records in a Submit payload:
// base_sequence u64 + dim u64 + count u32.
inline constexpr std::uint64_t kSubmitOverheadBytes = 8 + 8 + 4;

struct SubmitMessage {
  std::uint64_t base_sequence = 0;
  std::uint64_t dim = 0;
  std::vector<linalg::Vector> records;
};

// Worker -> coordinator. Sent only after the batch is durably in custody
// (journaled / spooled / quarantined — the pipeline flushed). A kill -9
// after this ack loses nothing.
struct SubmitAckMessage {
  std::uint64_t durable_total = 0;
};

struct HeartbeatMessage {
  std::uint64_t nonce = 0;
};

struct HeartbeatAckMessage {
  std::uint64_t nonce = 0;
  std::uint64_t durable_total = 0;
};

// Worker -> coordinator. The shard's final ledger plus its condensed
// group set in the canonical text serialization (core/serialization.h).
struct FinishResultMessage {
  runtime::StreamPipelineStats stats;
  std::string groups_text;
};

// Worker -> coordinator: a request failed cleanly on the worker side.
struct ErrorMessage {
  std::uint32_t code = 0;
  std::string message;
};

std::string EncodeHello(const HelloMessage& msg);
StatusOr<HelloMessage> DecodeHello(std::string_view payload);

std::string EncodeHelloAck(const HelloAckMessage& msg);
StatusOr<HelloAckMessage> DecodeHelloAck(std::string_view payload);

std::string EncodeSubmit(const SubmitMessage& msg);
StatusOr<SubmitMessage> DecodeSubmit(std::string_view payload);

std::string EncodeSubmitAck(const SubmitAckMessage& msg);
StatusOr<SubmitAckMessage> DecodeSubmitAck(std::string_view payload);

std::string EncodeHeartbeat(const HeartbeatMessage& msg);
StatusOr<HeartbeatMessage> DecodeHeartbeat(std::string_view payload);

std::string EncodeHeartbeatAck(const HeartbeatAckMessage& msg);
StatusOr<HeartbeatAckMessage> DecodeHeartbeatAck(std::string_view payload);

// The one encoder whose payload no config bounds: a shard's group set
// grows with its records. Fails kResourceExhausted when the payload would
// not fit in one frame (EncodeFrame CHECK-fails past kMaxFramePayload), so
// a worker reports an oversized shard in-band instead of aborting.
StatusOr<std::string> EncodeFinishResult(const FinishResultMessage& msg);
StatusOr<FinishResultMessage> DecodeFinishResult(std::string_view payload);

std::string EncodeError(const ErrorMessage& msg);
StatusOr<ErrorMessage> DecodeError(std::string_view payload);
// Reconstitutes a Status from a decoded ErrorMessage.
Status ErrorToStatus(const ErrorMessage& msg);
ErrorMessage StatusToError(const Status& status);

}  // namespace condensa::net

#endif  // CONDENSA_NET_WIRE_H_
