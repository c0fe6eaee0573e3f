// Packet fragmentation.
//
// Splits an application packet (up to 64 KiB, the paper's driver limit)
// into radio frames: one introduction fragment followed by data fragments
// that each carry as much payload as the frame size allows after the AFF
// header. The paper's experiment (80-byte packets over 27-byte frames with
// an 8-ish-bit id) yields exactly 1 intro + 4 data fragments; tests pin
// that geometry.
#pragma once

#include <cstdint>
#include <vector>

#include "aff/wire.hpp"
#include "core/identifier.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace retri::aff {

enum class FragmentError {
  kPacketTooLarge,   // beyond the 64 KiB length field
  kFrameTooSmall,    // frame cannot fit a data header plus one payload byte
  kEmptyPacket,      // zero-length packets are not transmitted
};

struct FragmenterConfig {
  WireConfig wire;
  /// Radio frame payload limit the fragments must fit (RPC: 27 bytes).
  std::size_t max_frame_bytes = 27;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The Fragmenter constructor applies this.
FragmenterConfig validated(FragmenterConfig config);

class Fragmenter {
 public:
  explicit Fragmenter(FragmenterConfig config);

  /// Payload bytes each data fragment can carry.
  std::size_t payload_per_fragment() const noexcept { return payload_per_fragment_; }

  /// Total frames (intro + data) a packet of `packet_bytes` needs.
  std::size_t frame_count(std::size_t packet_bytes) const noexcept;

  /// The number of frames `packet` needs, or why it cannot be sent.
  util::Result<std::size_t, FragmentError> frames_for(
      util::BytesView packet) const;

  /// Encodes frame `index` of `packet` into `frame`: index 0 is the
  /// introduction, then the data fragments in offset order. `frame`'s
  /// contents are replaced and its capacity kept, so one buffer reused for
  /// every frame encodes without allocating once warm. In instrumented mode
  /// every frame additionally carries `true_packet_id`.
  /// Precondition: index < frames_for(packet).value().
  void encode_frame(util::BytesView packet, core::TransactionId id,
                    std::uint64_t true_packet_id, std::size_t index,
                    util::Bytes& frame) const;

  /// Builds all the wire frames for `packet` under identifier `id`, each
  /// in its own buffer, with encode_frame.
  util::Result<std::vector<util::Bytes>, FragmentError> fragment(
      util::BytesView packet, core::TransactionId id,
      std::uint64_t true_packet_id = 0) const;

  const FragmenterConfig& config() const noexcept { return config_; }

 private:
  FragmenterConfig config_;
  std::size_t payload_per_fragment_;
};

}  // namespace retri::aff
