#include "aff/wire.hpp"

#include <utility>

#include "util/bitops.hpp"
#include "util/validate.hpp"

namespace retri::aff {

WireConfig validated(WireConfig config) {
  util::Validator v{"WireConfig"};
  v.in_range("id_bits", config.id_bits, 1, 64);
  return config;
}

namespace {

std::uint8_t kind_byte(FragmentKind kind, bool instrumented) {
  return static_cast<std::uint8_t>(kind) |
         (instrumented ? kInstrumentedFlag : std::uint8_t{0});
}

}  // namespace

const core::TransactionId& DecodedFragment::id() const {
  return std::visit([](const auto& f) -> const core::TransactionId& { return f.id; },
                    body);
}

std::size_t intro_header_bytes(const WireConfig& config) noexcept {
  return 1 + (config.instrumented ? 8 : 0) +
         util::bytes_for_bits(config.id_bits) + 2 + 4;
}

std::size_t data_header_bytes(const WireConfig& config) noexcept {
  return 1 + (config.instrumented ? 8 : 0) +
         util::bytes_for_bits(config.id_bits) + 2;
}

void encode_intro(const WireConfig& config, const IntroFragment& f,
                  std::optional<std::uint64_t> true_packet_id,
                  util::Bytes& out) {
  util::BufferWriter w(std::move(out), intro_header_bytes(config));
  w.u8(kind_byte(FragmentKind::kIntro, config.instrumented));
  if (config.instrumented) w.u64(true_packet_id.value_or(0));
  w.uvar(f.id.value(), config.id_bits);
  w.u16(f.total_len);
  w.u32(f.checksum);
  out = w.take();
}

void encode_data(const WireConfig& config, const DataFragment& f,
                 std::optional<std::uint64_t> true_packet_id,
                 util::Bytes& out) {
  util::BufferWriter w(std::move(out),
                       data_header_bytes(config) + f.payload.size());
  w.u8(kind_byte(FragmentKind::kData, config.instrumented));
  if (config.instrumented) w.u64(true_packet_id.value_or(0));
  w.uvar(f.id.value(), config.id_bits);
  w.u16(f.offset);
  w.raw(f.payload);
  out = w.take();
}

void encode_notify(const WireConfig& config, const CollisionNotify& f,
                   util::Bytes& out) {
  // Notifications are never instrumented: they reference an AFF id, not a
  // particular packet.
  util::BufferWriter w(std::move(out), 1 + util::bytes_for_bits(config.id_bits));
  w.u8(kind_byte(FragmentKind::kCollisionNotify, false));
  w.uvar(f.id.value(), config.id_bits);
  out = w.take();
}

util::Bytes encode_intro(const WireConfig& config, const IntroFragment& f,
                         std::optional<std::uint64_t> true_packet_id) {
  util::Bytes out;
  encode_intro(config, f, true_packet_id, out);
  return out;
}

util::Bytes encode_data(const WireConfig& config, const DataFragment& f,
                        std::optional<std::uint64_t> true_packet_id) {
  util::Bytes out;
  encode_data(config, f, true_packet_id, out);
  return out;
}

util::Bytes encode_notify(const WireConfig& config, const CollisionNotify& f) {
  util::Bytes out;
  encode_notify(config, f, out);
  return out;
}

bool decode(const WireConfig& config, util::BytesView frame,
            DecodedFragment& out) {
  util::BufferReader r(frame);
  const auto kind_field = r.u8();
  if (!kind_field) return false;

  const bool instrumented = (*kind_field & kInstrumentedFlag) != 0;
  const auto kind = static_cast<FragmentKind>(*kind_field & ~kInstrumentedFlag);

  if (kind == FragmentKind::kCollisionNotify) {
    if (instrumented) return false;  // never emitted; reject
    // Strict read: nonzero padding bits in the id field prove corruption
    // (encoders always write them as zero), and masking them off would
    // yield a frame that re-encodes differently than it arrived.
    const auto id = r.uvar_strict(config.id_bits);
    if (!id || !r.empty()) return false;
    out.body.emplace<CollisionNotify>(core::TransactionId(*id));
    out.true_packet_id.reset();
    return true;
  }

  // Intro and data fragments must match the receiver's instrumentation
  // configuration; a mismatch means a foreign/corrupt frame.
  if (instrumented != config.instrumented) return false;
  out.true_packet_id.reset();
  if (instrumented) {
    const auto true_id = r.u64();
    if (!true_id) return false;
    out.true_packet_id = *true_id;
  }

  const auto id = r.uvar_strict(config.id_bits);
  if (!id) return false;

  switch (kind) {
    case FragmentKind::kIntro: {
      const auto total_len = r.u16();
      const auto checksum = r.u32();
      if (!total_len || !checksum || !r.empty()) return false;
      out.body.emplace<IntroFragment>(core::TransactionId(*id), *total_len,
                                      *checksum);
      return true;
    }
    case FragmentKind::kData: {
      const auto offset = r.u16();
      if (!offset) return false;
      // Zero-copy: the fragment borrows the remaining frame bytes.
      out.body.emplace<DataFragment>(core::TransactionId(*id), *offset,
                                     r.rest());
      return true;
    }
    case FragmentKind::kCollisionNotify:
      break;  // handled above
  }
  return false;
}

std::optional<DecodedFragment> decode(const WireConfig& config,
                                      util::BytesView frame) {
  std::optional<DecodedFragment> out(std::in_place);
  if (!decode(config, frame, *out)) out.reset();
  return out;
}

}  // namespace retri::aff
