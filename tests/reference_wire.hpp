// Test-only reference: aff::decode as it was before it decoded in place,
// kept verbatim apart from its namespace, together with the out-of-line
// BufferReader field reads it was built on (also verbatim, minus the
// accessors decode never called). The decode oracle in
// test_wire_oracle.cpp feeds it and both production overloads the same
// frames and requires the same accept/reject verdict and the same fields.
// It shares the production fragment and config types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "aff/wire.hpp"
#include "util/bytes.hpp"

namespace retri::aff::reference {

/// Reads big-endian fields from a byte span. All accessors return
/// std::nullopt on underrun instead of throwing.
class BufferReader {
 public:
  explicit BufferReader(util::BytesView data) noexcept : data_(data) {}

  std::optional<std::uint8_t> u8() noexcept;
  std::optional<std::uint16_t> u16() noexcept;
  std::optional<std::uint32_t> u32() noexcept;
  std::optional<std::uint64_t> u64() noexcept;

  /// Like a masked uvar read, but rejects (nullopt) fields whose padding
  /// bits are nonzero.
  std::optional<std::uint64_t> uvar_strict(unsigned bits) noexcept;

  /// Reads exactly n bytes as a view into the underlying buffer (no copy);
  /// nullopt if fewer remain.
  std::optional<util::BytesView> raw_view(std::size_t n) noexcept;

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool empty() const noexcept { return pos_ >= data_.size(); }

 private:
  util::BytesView data_;
  std::size_t pos_ = 0;
};

/// Decodes any AFF frame. Returns nullopt on truncation, unknown kind, or
/// an instrumentation flag mismatching the configuration.
std::optional<DecodedFragment> decode(const WireConfig& config,
                                      util::BytesView frame);

}  // namespace retri::aff::reference
