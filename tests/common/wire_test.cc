#include "common/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/random.h"

namespace condensa {
namespace {

// The CRC32 definition, one bit at a time.
std::uint32_t BitwiseCrc32(const std::string& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesTheBitwiseDefinitionAtEveryLengthAndOffset) {
  Rng rng(5);
  std::string data(300, '\0');
  for (char& c : data) c = static_cast<char>(rng.UniformIndex(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; offset + length <= 120; ++length) {
      const std::string slice = data.substr(offset, length);
      EXPECT_EQ(Crc32(slice), BitwiseCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
  EXPECT_EQ(Crc32(data), BitwiseCrc32(data));
}

TEST(WireWriterTest, ScalarsAreLittleEndian) {
  WireWriter writer;
  writer.PutU16(0x0102);
  writer.PutU32(0x03040506u);
  writer.PutU64(0x0708090A0B0C0D0Eull);
  writer.PutDouble(1.0);  // 0x3FF0000000000000
  EXPECT_EQ(writer.buffer(),
            std::string("\x02\x01\x06\x05\x04\x03\x0E\x0D\x0C\x0B\x0A\x09"
                        "\x08\x07\0\0\0\0\0\0\xF0\x3F",
                        22));
}

}  // namespace
}  // namespace condensa
