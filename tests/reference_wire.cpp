#include "reference_wire.hpp"

#include "util/bitops.hpp"

namespace retri::aff::reference {

std::optional<std::uint8_t> BufferReader::u8() noexcept {
  if (remaining() < 1) return std::nullopt;
  return data_[pos_++];
}

std::optional<std::uint16_t> BufferReader::u16() noexcept {
  if (remaining() < 2) return std::nullopt;
  std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> BufferReader::u32() noexcept {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::optional<std::uint64_t> BufferReader::u64() noexcept {
  if (remaining() < 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

std::optional<std::uint64_t> BufferReader::uvar_strict(unsigned bits) noexcept {
  const std::size_t nbytes = util::bytes_for_bits(bits);
  if (remaining() < nbytes) return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < nbytes; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += nbytes;
  if ((v & ~util::low_mask(bits)) != 0) return std::nullopt;
  return v;
}

std::optional<util::BytesView> BufferReader::raw_view(std::size_t n) noexcept {
  if (remaining() < n) return std::nullopt;
  util::BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::optional<DecodedFragment> decode(const WireConfig& config,
                                      util::BytesView frame) {
  BufferReader r(frame);
  const auto kind_field = r.u8();
  if (!kind_field) return std::nullopt;

  const bool instrumented = (*kind_field & kInstrumentedFlag) != 0;
  const auto kind = static_cast<FragmentKind>(*kind_field & ~kInstrumentedFlag);

  DecodedFragment out;
  if (kind == FragmentKind::kCollisionNotify) {
    if (instrumented) return std::nullopt;  // never emitted; reject
    // Strict read: nonzero padding bits in the id field prove corruption
    // (encoders always write them as zero), and masking them off would
    // yield a frame that re-encodes differently than it arrived.
    const auto id = r.uvar_strict(config.id_bits);
    if (!id || !r.empty()) return std::nullopt;
    out.body = CollisionNotify{core::TransactionId(*id)};
    return out;
  }

  // Intro and data fragments must match the receiver's instrumentation
  // configuration; a mismatch means a foreign/corrupt frame.
  if (instrumented != config.instrumented) return std::nullopt;
  if (instrumented) {
    const auto true_id = r.u64();
    if (!true_id) return std::nullopt;
    out.true_packet_id = *true_id;
  }

  const auto id = r.uvar_strict(config.id_bits);
  if (!id) return std::nullopt;

  switch (kind) {
    case FragmentKind::kIntro: {
      const auto total_len = r.u16();
      const auto checksum = r.u32();
      if (!total_len || !checksum || !r.empty()) return std::nullopt;
      out.body = IntroFragment{core::TransactionId(*id), *total_len, *checksum};
      return out;
    }
    case FragmentKind::kData: {
      const auto offset = r.u16();
      if (!offset) return std::nullopt;
      // Zero-copy: the fragment borrows the remaining frame bytes.
      const auto payload = r.raw_view(r.remaining());
      out.body = DataFragment{core::TransactionId(*id), *offset, *payload};
      return out;
    }
    case FragmentKind::kCollisionNotify:
      break;  // handled above
  }
  return std::nullopt;
}

}  // namespace retri::aff::reference
