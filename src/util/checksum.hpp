// Checksums used by the AFF reassembler to validate reconstructed packets.
//
// The paper's driver rejects packets whose checksum fails ("Packets that
// suffer from identifier collisions are never delivered because of checksum
// failures or other inconsistencies", §5). We provide:
//   - CRC-32 (IEEE 802.3 polynomial) — the default packet checksum.
//   - Fletcher-16 — a cheaper alternative matching the paper's low-power
//     setting, exposed so benches can quantify the header-size tradeoff.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace retri::util {

/// CRC-32 (reflected, polynomial 0xEDB88320), the IEEE 802.3 CRC. Computed
/// slice-by-8: eight bytes per step through eight 256-entry tables, then a
/// bytewise tail; the result equals the classic bytewise algorithm's.
std::uint32_t crc32(BytesView data) noexcept;

/// Incremental CRC-32: feed chunks, then finish(). Equivalent to crc32()
/// over the concatenation of the chunks.
class Crc32 {
 public:
  void update(BytesView data) noexcept;
  std::uint32_t finish() const noexcept { return ~state_; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// Fletcher-16 checksum (two 8-bit running sums mod 255).
std::uint16_t fletcher16(BytesView data) noexcept;

}  // namespace retri::util
