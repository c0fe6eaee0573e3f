#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "util/random.hpp"

namespace retri::util {
namespace {

TEST(BufferWriter, FixedWidthFieldsAreBigEndian) {
  BufferWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  const Bytes expected = {0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef,
                          0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(w.bytes(), expected);
}

TEST(BufferWriter, UvarUsesMinimalWholeBytes) {
  BufferWriter w;
  w.uvar(0x5, 3);     // 1 byte
  w.uvar(0x1ff, 9);   // 2 bytes
  w.uvar(0x12345, 17);  // 3 bytes
  EXPECT_EQ(w.size(), 6u);
  const Bytes expected = {0x05, 0x01, 0xff, 0x01, 0x23, 0x45};
  EXPECT_EQ(w.bytes(), expected);
}

TEST(BufferWriter, UvarMasksValueToWidth) {
  BufferWriter w;
  w.uvar(0xffff, 4);  // only low 4 bits survive
  const Bytes expected = {0x0f};
  EXPECT_EQ(w.bytes(), expected);
}

TEST(BufferRoundTrip, AllFieldWidths) {
  BufferWriter w;
  w.u8(0x42);
  w.u16(0xbeef);
  w.u32(0xcafebabe);
  w.u64(0x1122334455667788ULL);
  w.uvar(0x155, 9);
  const Bytes payload = {1, 2, 3};
  w.raw(payload);

  BufferReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0x42);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xcafebabe);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.uvar(9), 0x155u);
  const auto tail = r.raw_view(3);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(Bytes(tail->begin(), tail->end()), payload);
  EXPECT_TRUE(r.empty());
}

TEST(BufferReader, UnderrunReturnsNulloptNotCrash) {
  const Bytes data = {0x01};
  BufferReader r(data);
  EXPECT_FALSE(r.u16().has_value());
  EXPECT_FALSE(r.u32().has_value());
  EXPECT_FALSE(r.u64().has_value());
  EXPECT_FALSE(r.uvar(16).has_value());
  EXPECT_FALSE(r.raw_view(2).has_value());
  // The single byte is still readable after the failed attempts.
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_FALSE(r.u8().has_value());
}

TEST(BufferReader, EmptyInput) {
  BufferReader r({});
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.u8().has_value());
}

TEST(BufferReader, RestReturnsUnconsumedSuffix) {
  const Bytes data = {1, 2, 3, 4, 5};
  BufferReader r(data);
  (void)r.u16();
  const auto rest = r.rest();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 3);
  EXPECT_EQ(rest[2], 5);
}

TEST(BufferReader, RawZeroBytesSucceeds) {
  const Bytes data = {9};
  BufferReader r(data);
  const auto empty = r.raw_view(0);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(UvarRoundTrip, EveryWidthFrom1To64) {
  Xoshiro256 rng(99);
  for (unsigned bits = 1; bits <= 64; ++bits) {
    const std::uint64_t mask =
        bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t v = rng.next() & mask;
      BufferWriter w;
      w.uvar(v, bits);
      BufferReader r(w.bytes());
      EXPECT_EQ(r.uvar(bits), v) << "bits=" << bits;
      EXPECT_TRUE(r.empty());
    }
  }
}

TEST(ToHex, FormatsSpaceSeparatedLowercase) {
  const Bytes data = {0xde, 0xad, 0x00, 0x0f};
  EXPECT_EQ(to_hex(data), "de ad 00 0f");
  EXPECT_EQ(to_hex({}), "");
}

TEST(RandomPayload, DeterministicAndSeedSensitive) {
  const Bytes a = random_payload(64, 1);
  const Bytes b = random_payload(64, 1);
  const Bytes c = random_payload(64, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_TRUE(random_payload(0, 1).empty());
  // Refilling a reused buffer writes the same byte stream, whatever the
  // buffer held before.
  Bytes reused = random_payload(100, 9);
  fill_random_payload(reused, 64, 1);
  EXPECT_EQ(reused, a);
}

// A pool refills a buffer only once nobody holds it, and a buffer still
// held when its pool dies stays readable until its last holder frees it.
TEST(BytesPool, RecyclesOnlyUnheldBuffersAndOrphansHeldOnes) {
  const Bytes a = random_payload(27, 1);
  const Bytes b = random_payload(20, 2);
  std::optional<BytesPool> pool(std::in_place);
  const std::uint8_t* first_buffer = nullptr;
  {
    const SharedBytes x = pool->copy_of(a);
    EXPECT_EQ(x.bytes(), a);
    EXPECT_EQ(x.use_count(), 1);
    first_buffer = x.bytes().data();
  }
  SharedBytes y = pool->copy_of(b);  // the idle buffer, refilled in place
  EXPECT_EQ(y.bytes().data(), first_buffer);
  EXPECT_EQ(y.bytes(), b);
  SharedBytes z = pool->copy_of(a);  // y holds the first: a second buffer
  EXPECT_NE(z.bytes().data(), y.bytes().data());
  const SharedBytes alias = z;
  z.mutable_bytes()[0] ^= 0xff;  // shared: z detaches onto a clone
  EXPECT_EQ(alias.bytes(), a);
  EXPECT_EQ(alias.use_count(), 1);

  pool.reset();
  EXPECT_EQ(y.bytes(), b);
  EXPECT_EQ(alias.bytes(), a);
  y.mutable_bytes()[0] ^= 0xff;  // unshared orphan: mutates in place
  EXPECT_EQ(y.use_count(), 1);
}

}  // namespace
}  // namespace retri::util
