#include "net/addressed_frag.hpp"

#include <algorithm>
#include <string>

#include "util/bitops.hpp"
#include "util/checksum.hpp"
#include "util/validate.hpp"

namespace retri::net {
namespace {

constexpr std::uint8_t kIntroKind = 0x11;
constexpr std::uint8_t kDataKind = 0x12;

/// validated(config), plus the check that `source` fits the wire's
/// addr_bits: a wider address would be silently masked on the wire.
AddressedConfig validated_for(Address source, AddressedConfig config) {
  validated(config);
  if ((source.value() & ~util::low_mask(config.addr_bits)) != 0) {
    util::Validator{"AddressedConfig"}.fail(
        "addr_bits",
        "cover the source address " + std::to_string(source.value()),
        std::to_string(config.addr_bits));
  }
  return config;
}

}  // namespace

AddressedConfig validated(AddressedConfig config) {
  util::Validator v{"AddressedConfig"};
  v.in_range("addr_bits", config.addr_bits, 1, 48);
  v.positive_seconds("reassembly_timeout",
                     config.reassembly_timeout.to_seconds());
  v.at_least("max_reassembly_entries", config.max_reassembly_entries, 1);
  return config;
}

AddressedDriver::AddressedDriver(radio::Radio& radio, Address source,
                                 AddressedConfig config)
    : radio_(radio),
      source_(source),
      config_(validated_for(source, config)),
      payload_per_fragment_(
          radio.config().max_frame_bytes > data_header_bytes()
              ? radio.config().max_frame_bytes - data_header_bytes()
              : 0),
      reassembler_(aff::ReassemblerConfig{config.reassembly_timeout,
                                          config.max_reassembly_entries}) {
  radio_.set_receive_callback(
      [this](sim::NodeId, const util::Bytes& frame) { on_frame(frame); });

  reassembler_.set_deliver([this](std::uint64_t key, util::BytesView packet) {
    ++stats_.packets_delivered;
    if (on_packet_) on_packet_(Address(key >> 16), packet);
  });
}

AddressedDriver::~AddressedDriver() {
  expiry_timer_.cancel();
  radio_.set_receive_callback(nullptr);
}

std::size_t AddressedDriver::intro_header_bytes() const noexcept {
  return 1 + util::bytes_for_bits(config_.addr_bits) + 2 + 2 + 4;
}

std::size_t AddressedDriver::data_header_bytes() const noexcept {
  return 1 + util::bytes_for_bits(config_.addr_bits) + 2 + 2;
}

std::size_t AddressedDriver::frame_count(std::size_t packet_bytes) const noexcept {
  if (payload_per_fragment_ == 0) return 0;
  return 1 + (packet_bytes + payload_per_fragment_ - 1) / payload_per_fragment_;
}

void AddressedDriver::ensure_expiry_timer() {
  if (expiry_timer_.pending()) return;
  if (reassembler_.pending_count() == 0) return;
  expiry_timer_ = radio_.simulator().schedule_after(
      config_.reassembly_timeout / 2, [this]() {
        reassembler_.expire(radio_.simulator().now());
        ensure_expiry_timer();
      });
}

util::Result<std::uint16_t, StaticSendError> AddressedDriver::send_packet(
    util::BytesView packet) {
  if (packet.empty()) {
    ++stats_.send_failures;
    return StaticSendError::kEmpty;
  }
  if (packet.size() > 0xffff) {
    ++stats_.send_failures;
    return StaticSendError::kTooLarge;
  }
  if (payload_per_fragment_ == 0 ||
      intro_header_bytes() > radio_.config().max_frame_bytes) {
    ++stats_.send_failures;
    return StaticSendError::kFrameTooSmall;
  }

  const std::uint16_t seq = next_seq_++;

  util::BufferWriter intro(intro_header_bytes());
  intro.u8(kIntroKind);
  intro.uvar(source_.value(), config_.addr_bits);
  intro.u16(seq);
  intro.u16(static_cast<std::uint16_t>(packet.size()));
  intro.u32(util::crc32(packet));
  radio_.send(intro.take());
  ++stats_.fragments_sent;

  for (std::size_t offset = 0; offset < packet.size();
       offset += payload_per_fragment_) {
    const std::size_t n =
        std::min(payload_per_fragment_, packet.size() - offset);
    util::BufferWriter data(data_header_bytes() + n);
    data.u8(kDataKind);
    data.uvar(source_.value(), config_.addr_bits);
    data.u16(seq);
    data.u16(static_cast<std::uint16_t>(offset));
    data.raw(packet.subspan(offset, n));
    radio_.send(data.take());
    ++stats_.fragments_sent;
  }

  ++stats_.packets_sent;
  return seq;
}

void AddressedDriver::on_frame(const util::Bytes& frame) {
  util::BufferReader r(frame);
  const auto kind = r.u8();
  const auto src = r.uvar(config_.addr_bits);
  const auto seq = r.u16();
  if (!kind || !src || !seq) {
    ++stats_.undecodable_frames;
    return;
  }
  const std::uint64_t key = key_of(*src, *seq);

  if (*kind == kIntroKind) {
    const auto total_len = r.u16();
    const auto checksum = r.u32();
    if (!total_len || !checksum || !r.empty()) {
      ++stats_.undecodable_frames;
      return;
    }
    reassembler_.on_intro(key, *total_len, *checksum, radio_.simulator().now());
    ensure_expiry_timer();
  } else if (*kind == kDataKind) {
    const auto offset = r.u16();
    if (!offset) {
      ++stats_.undecodable_frames;
      return;
    }
    reassembler_.on_data(key, *offset, *r.raw_view(r.remaining()),
                         radio_.simulator().now());
    ensure_expiry_timer();
  } else {
    ++stats_.undecodable_frames;
  }
}

}  // namespace retri::net
