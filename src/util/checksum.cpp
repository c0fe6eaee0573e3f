#include "util/checksum.hpp"

#include <array>
#include <cstddef>

namespace retri::util {
namespace {

using CrcTable = std::array<std::uint32_t, 256>;

/// Slice-by-8 tables. kCrcTables[0] is the classic bytewise table for the
/// reflected polynomial; kCrcTables[k][b] is the CRC contribution of byte b
/// followed by k zero bytes, so eight table lookups advance the CRC by
/// eight bytes at once.
constexpr std::array<CrcTable, 8> make_crc_tables() {
  std::array<CrcTable, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr auto kCrcTables = make_crc_tables();

/// Little-endian 32-bit word from four bytes. Assembled byte by byte so it
/// is correct on any host; compilers fold it into one load where they can.
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(BytesView data) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(BytesView data) noexcept {
  Crc32 c;
  c.update(data);
  return c.finish();
}

std::uint16_t fletcher16(BytesView data) noexcept {
  std::uint32_t sum1 = 0;
  std::uint32_t sum2 = 0;
  for (const std::uint8_t b : data) {
    sum1 = (sum1 + b) % 255;
    sum2 = (sum2 + sum1) % 255;
  }
  return static_cast<std::uint16_t>((sum2 << 8) | sum1);
}

}  // namespace retri::util
