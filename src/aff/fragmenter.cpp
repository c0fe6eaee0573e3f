#include "aff/fragmenter.hpp"

#include <algorithm>

#include "util/checksum.hpp"
#include "util/validate.hpp"

namespace retri::aff {

FragmenterConfig validated(FragmenterConfig config) {
  config.wire = validated(config.wire);
  util::Validator v{"FragmenterConfig"};
  // A frame too small for a data header + payload byte is a RUNTIME
  // condition (kFrameTooSmall) so callers can probe it; only a frame of
  // zero bytes is nonsensical enough to reject at construction.
  v.at_least("max_frame_bytes", config.max_frame_bytes, 1);
  return config;
}

Fragmenter::Fragmenter(FragmenterConfig config)
    : config_(validated(config)),
      payload_per_fragment_(
          config_.max_frame_bytes > data_header_bytes(config_.wire)
              ? config_.max_frame_bytes - data_header_bytes(config_.wire)
              : 0) {}

std::size_t Fragmenter::frame_count(std::size_t packet_bytes) const noexcept {
  if (payload_per_fragment_ == 0) return 0;
  return 1 + (packet_bytes + payload_per_fragment_ - 1) / payload_per_fragment_;
}

util::Result<std::size_t, FragmentError> Fragmenter::frames_for(
    util::BytesView packet) const {
  if (packet.empty()) return FragmentError::kEmptyPacket;
  if (packet.size() > 0xffff) return FragmentError::kPacketTooLarge;
  if (payload_per_fragment_ == 0 ||
      intro_header_bytes(config_.wire) > config_.max_frame_bytes) {
    return FragmentError::kFrameTooSmall;
  }
  return frame_count(packet.size());
}

void Fragmenter::encode_frame(util::BytesView packet, core::TransactionId id,
                              std::uint64_t true_packet_id, std::size_t index,
                              util::Bytes& frame) const {
  const std::optional<std::uint64_t> true_id =
      config_.wire.instrumented ? std::optional<std::uint64_t>(true_packet_id)
                                : std::nullopt;
  if (index == 0) {
    const IntroFragment intro{id, static_cast<std::uint16_t>(packet.size()),
                              util::crc32(packet)};
    encode_intro(config_.wire, intro, true_id, frame);
    return;
  }
  const std::size_t offset = (index - 1) * payload_per_fragment_;
  const std::size_t n = std::min(payload_per_fragment_, packet.size() - offset);
  const DataFragment data{id, static_cast<std::uint16_t>(offset),
                          packet.subspan(offset, n)};
  encode_data(config_.wire, data, true_id, frame);
}

util::Result<std::vector<util::Bytes>, FragmentError> Fragmenter::fragment(
    util::BytesView packet, core::TransactionId id,
    std::uint64_t true_packet_id) const {
  const auto count = frames_for(packet);
  if (!count) return count.error();
  std::vector<util::Bytes> frames(count.value());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    encode_frame(packet, id, true_packet_id, i, frames[i]);
  }
  return frames;
}

}  // namespace retri::aff
