#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "util/random.hpp"

namespace retri::util {
namespace {

Bytes from_string(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE 802.3) check values.
  EXPECT_EQ(crc32(from_string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(from_string("")), 0x00000000u);
  EXPECT_EQ(crc32(from_string("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(from_string("abc")), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = random_payload(1000, 5);
  Crc32 incremental;
  incremental.update(BytesView(data.data(), 100));
  incremental.update(BytesView(data.data() + 100, 1));
  incremental.update(BytesView(data.data() + 101, 899));
  EXPECT_EQ(incremental.finish(), crc32(data));
}

/// The CRC-32 definition itself, one bit at a time: the reference the
/// table-driven slice-by-8 routine must reproduce.
std::uint32_t bitwise_crc32(BytesView data) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

TEST(Crc32, SliceBy8MatchesBitwiseAtEveryLengthAndAlignment) {
  const Bytes data = random_payload(300 + 16, 11);
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const BytesView view(data.data() + start, len);
      ASSERT_EQ(crc32(view), bitwise_crc32(view))
          << "start " << start << ", length " << len;
    }
  }
}

TEST(Crc32, IncrementalMatchesBitwiseAtEverySplit) {
  const Bytes data = random_payload(80, 12);
  for (const std::size_t len : {7u, 8u, 9u, 27u, 64u, 80u}) {
    const BytesView whole(data.data(), len);
    for (std::size_t split = 0; split <= len; ++split) {
      Crc32 c;
      c.update(whole.first(split));
      c.update(whole.subspan(split));
      ASSERT_EQ(c.finish(), bitwise_crc32(whole))
          << "length " << len << ", split " << split;
    }
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  Xoshiro256 rng(77);
  Bytes data = random_payload(200, 6);
  const std::uint32_t clean = crc32(data);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t byte = static_cast<std::size_t>(rng.below(data.size()));
    const int bit = static_cast<int>(rng.below(8));
    data[byte] ^= static_cast<std::uint8_t>(1 << bit);
    EXPECT_NE(crc32(data), clean);
    data[byte] ^= static_cast<std::uint8_t>(1 << bit);  // restore
  }
  EXPECT_EQ(crc32(data), clean);
}

TEST(Crc32, DetectsByteSwap) {
  Bytes data = from_string("hello world");
  const std::uint32_t clean = crc32(data);
  std::swap(data[0], data[1]);
  EXPECT_NE(crc32(data), clean);
}

TEST(Fletcher16, KnownVectors) {
  // Classic Fletcher-16 test vectors.
  EXPECT_EQ(fletcher16(from_string("abcde")), 0xC8F0u);
  EXPECT_EQ(fletcher16(from_string("abcdef")), 0x2057u);
  EXPECT_EQ(fletcher16(from_string("abcdefgh")), 0x0627u);
}

TEST(Fletcher16, EmptyIsZero) {
  EXPECT_EQ(fletcher16({}), 0u);
}

TEST(Fletcher16, DetectsMostSingleByteChanges) {
  const Bytes data = random_payload(100, 8);
  const std::uint16_t clean = fletcher16(data);
  Bytes tampered = data;
  tampered[50] ^= 0x01;
  EXPECT_NE(fletcher16(tampered), clean);
}

}  // namespace
}  // namespace retri::util
