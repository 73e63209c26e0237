// Length-prefixed, versioned, checksummed wire framing.
//
// Every message the shard fabric puts on a TCP connection travels inside
// one frame:
//
//   offset  size  field
//   0       4     magic "CNWF"
//   4       2     protocol version (little-endian u16, currently 1)
//   6       2     frame type (little-endian u16, see FrameType)
//   8       4     payload length in bytes (little-endian u32)
//   12      4     CRC32 (IEEE) of the payload bytes
//   16      ...   payload
//
// The framing layer is where untrusted bytes first meet the process, so
// decoding is paranoid by construction: the magic, version, type, and
// length are validated BEFORE any payload allocation happens — a corrupt
// or hostile length field (negative-as-unsigned, multi-gigabyte, larger
// than the declared cap) is rejected with a clean kDataLoss /
// kInvalidArgument Status, never an allocation or a crash. Truncated
// headers and payloads, and checksum mismatches, fail the same way. The
// corruption-fuzz suite mangles framed messages byte-by-byte to pin this
// contract (tests/net/frame_test.cc, tests/core/serialization_corruption
// _test.cc).

#ifndef CONDENSA_NET_FRAME_H_
#define CONDENSA_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/wire.h"

namespace condensa::net {

// Wire protocol version; bumped on any incompatible frame or payload
// layout change. A peer speaking a different version is rejected at
// handshake with kFailedPrecondition.
//
// v2: Query carries a relative deadline budget; QueryResult carries a
//     snapshot staleness field.
inline constexpr std::uint16_t kProtocolVersion = 2;

// Hard ceiling on a single frame's payload. A Submit batch of 4096
// records at d = 512 is ~16 MiB; 64 MiB leaves generous headroom while
// keeping a corrupt length field from driving a giant allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

inline constexpr std::size_t kFrameHeaderSize = 16;

enum class FrameType : std::uint16_t {
  // Coordinator -> worker: session handshake (shard id, dim, k, tuning).
  kHello = 1,
  // Worker -> coordinator: handshake accept (worker id, durable count).
  kHelloAck = 2,
  // Coordinator -> worker: a batch of records.
  kSubmit = 3,
  // Worker -> coordinator: batch is durably in custody.
  kSubmitAck = 4,
  // Coordinator -> worker: liveness probe.
  kHeartbeat = 5,
  // Worker -> coordinator: liveness answer (echoes the nonce).
  kHeartbeatAck = 6,
  // Coordinator -> worker: drain, condense, and return the shard set.
  kFinish = 7,
  // Worker -> coordinator: final ledger + serialized group set.
  kFinishResult = 8,
  // Either direction: the session ends without a Finish.
  kGoodbye = 9,
  // Worker -> coordinator: request-level failure (code + message).
  kError = 10,
  // Client -> query server: one mining query against the condensed
  // groups (classify / aggregate / regenerate; see src/query/wire.h).
  kQuery = 11,
  // Query server -> client: the query's answer.
  kQueryResult = 12,
};

// True when `value` names a FrameType this protocol version understands.
bool IsKnownFrameType(std::uint16_t value);

// Human-readable type name for logs and error messages.
const char* FrameTypeName(FrameType type);

struct FrameHeader {
  std::uint16_t version = kProtocolVersion;
  FrameType type = FrameType::kError;
  std::uint32_t payload_length = 0;
  std::uint32_t payload_crc32 = 0;
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

// Renders header + payload as one contiguous byte string. Payloads at or
// above kMaxFramePayload are a programming error (CHECK).
std::string EncodeFrame(FrameType type, std::string_view payload);

// Parses and validates the 16-byte header in `data` (which must hold at
// least kFrameHeaderSize bytes — shorter input fails with kDataLoss).
// Rejects bad magic, unknown versions and types, and payload lengths
// above `max_payload` without touching any payload bytes.
StatusOr<FrameHeader> DecodeFrameHeader(
    std::string_view data, std::uint32_t max_payload = kMaxFramePayload);

// Decodes one complete frame (header + payload) from `data`, verifying
// the checksum. `data` must contain the frame exactly (trailing bytes are
// rejected — the transport delivers one frame at a time).
StatusOr<Frame> DecodeFrame(std::string_view data,
                            std::uint32_t max_payload = kMaxFramePayload);

}  // namespace condensa::net

#endif  // CONDENSA_NET_FRAME_H_
