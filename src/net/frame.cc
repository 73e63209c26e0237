#include "net/frame.h"

#include <cstring>

#include "common/check.h"

namespace condensa::net {
namespace {

constexpr char kMagic[4] = {'C', 'N', 'W', 'F'};

}  // namespace

bool IsKnownFrameType(std::uint16_t value) {
  return value >= static_cast<std::uint16_t>(FrameType::kHello) &&
         value <= static_cast<std::uint16_t>(FrameType::kQueryResult);
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "Hello";
    case FrameType::kHelloAck: return "HelloAck";
    case FrameType::kSubmit: return "Submit";
    case FrameType::kSubmitAck: return "SubmitAck";
    case FrameType::kHeartbeat: return "Heartbeat";
    case FrameType::kHeartbeatAck: return "HeartbeatAck";
    case FrameType::kFinish: return "Finish";
    case FrameType::kFinishResult: return "FinishResult";
    case FrameType::kGoodbye: return "Goodbye";
    case FrameType::kError: return "Error";
    case FrameType::kQuery: return "Query";
    case FrameType::kQueryResult: return "QueryResult";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  CONDENSA_CHECK_LE(payload.size(),
                    static_cast<std::size_t>(kMaxFramePayload));
  WireWriter out;
  out.Reserve(kFrameHeaderSize + payload.size());
  out.PutBytes(std::string_view(kMagic, sizeof(kMagic)));
  out.PutU16(kProtocolVersion);
  out.PutU16(static_cast<std::uint16_t>(type));
  out.PutU32(static_cast<std::uint32_t>(payload.size()));
  out.PutU32(Crc32(payload));
  out.PutBytes(payload);
  return out.Take();
}

StatusOr<FrameHeader> DecodeFrameHeader(std::string_view data,
                                        std::uint32_t max_payload) {
  if (data.size() < kFrameHeaderSize) {
    return DataLossError("truncated frame header: " +
                         std::to_string(data.size()) + " of " +
                         std::to_string(kFrameHeaderSize) + " bytes");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return DataLossError("bad frame magic");
  }
  // The size check above makes every read below succeed.
  WireReader reader(
      data.substr(sizeof(kMagic), kFrameHeaderSize - sizeof(kMagic)));
  FrameHeader header;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU16(&header.version));
  if (header.version != kProtocolVersion) {
    return FailedPreconditionError(
        "unsupported wire protocol version " +
        std::to_string(header.version) + " (this build speaks " +
        std::to_string(kProtocolVersion) + ")");
  }
  std::uint16_t raw_type = 0;
  CONDENSA_RETURN_IF_ERROR(reader.ReadU16(&raw_type));
  if (!IsKnownFrameType(raw_type)) {
    return DataLossError("unknown frame type " + std::to_string(raw_type));
  }
  header.type = static_cast<FrameType>(raw_type);
  // The length is validated before any caller allocates payload space: a
  // corrupt length (including a negative value reinterpreted as a huge
  // unsigned) must never drive an allocation.
  CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&header.payload_length));
  if (header.payload_length > max_payload) {
    return DataLossError("frame payload length " +
                         std::to_string(header.payload_length) +
                         " exceeds the " + std::to_string(max_payload) +
                         "-byte cap");
  }
  CONDENSA_RETURN_IF_ERROR(reader.ReadU32(&header.payload_crc32));
  return header;
}

StatusOr<Frame> DecodeFrame(std::string_view data,
                            std::uint32_t max_payload) {
  CONDENSA_ASSIGN_OR_RETURN(FrameHeader header,
                            DecodeFrameHeader(data, max_payload));
  const std::size_t total = kFrameHeaderSize + header.payload_length;
  if (data.size() < total) {
    return DataLossError("truncated frame payload: " +
                         std::to_string(data.size() - kFrameHeaderSize) +
                         " of " + std::to_string(header.payload_length) +
                         " bytes");
  }
  if (data.size() > total) {
    return DataLossError("trailing bytes after frame payload");
  }
  std::string_view payload = data.substr(kFrameHeaderSize,
                                         header.payload_length);
  if (Crc32(payload) != header.payload_crc32) {
    return DataLossError("frame checksum mismatch");
  }
  Frame frame;
  frame.type = header.type;
  frame.payload.assign(payload.data(), payload.size());
  return frame;
}

}  // namespace condensa::net
