// Address-full fragmentation — the IP-style baseline (§2.1).
//
// Each fragment carries the sender's statically assigned address plus a
// per-sender sequence number, so the pair (address, sequence) is a
// guaranteed-unique packet identifier and reassembly can never suffer an
// identifier collision. The cost is the address bits in every fragment:
// header = addr_bits + 16-bit sequence + 16-bit offset/length fields.
//
// Wire layout (big-endian):
//   intro: [kind:1][src:ceil(A/8)][seq:2][total_len:2][checksum:4]
//   data:  [kind:1][src:ceil(A/8)][seq:2][offset:2][payload...]
//
// Reuses the AFF Reassembler keyed by hash(src, seq) — the machinery is
// identical; only the identifier's provenance differs, which is the
// paper's central observation.
#pragma once

#include <cstdint>
#include <functional>

#include "aff/reassembler.hpp"
#include "net/static_addr.hpp"
#include "radio/radio.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace retri::net {

enum class StaticSendError { kEmpty, kTooLarge, kFrameTooSmall };

struct AddressedConfig {
  /// Width of the static source address carried in every fragment, in
  /// [1, 48] (Ethernet's 48-bit space is the paper's largest comparator;
  /// the bound keeps (address, sequence) packed exactly into a uint64 key).
  unsigned addr_bits = 16;
  sim::Duration reassembly_timeout = sim::Duration::seconds(10);
  std::size_t max_reassembly_entries = 1024;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The AddressedDriver constructor applies this.
AddressedConfig validated(AddressedConfig config);

struct AddressedStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t undecodable_frames = 0;
};

/// Fragmentation/reassembly driver using (source address, sequence) packet
/// identifiers. The static-allocation comparator for every AFF experiment.
class AddressedDriver {
 public:
  /// Receives a delivered packet as a view valid only during the call; a
  /// handler that keeps the packet copies it.
  using PacketHandler =
      std::function<void(Address from, util::BytesView packet)>;

  /// Throws std::invalid_argument when `config` is invalid or `source` does
  /// not fit in config.addr_bits.
  AddressedDriver(radio::Radio& radio, Address source, AddressedConfig config);
  ~AddressedDriver();

  AddressedDriver(const AddressedDriver&) = delete;
  AddressedDriver& operator=(const AddressedDriver&) = delete;

  void set_packet_handler(PacketHandler handler) { on_packet_ = std::move(handler); }

  util::Result<std::uint16_t, StaticSendError> send_packet(util::BytesView packet);

  /// Payload bytes per data fragment under this configuration.
  std::size_t payload_per_fragment() const noexcept { return payload_per_fragment_; }
  std::size_t frame_count(std::size_t packet_bytes) const noexcept;

  Address source() const noexcept { return source_; }
  const AddressedStats& stats() const noexcept { return stats_; }
  const aff::Reassembler& reassembler() const noexcept { return reassembler_; }

 private:
  std::size_t intro_header_bytes() const noexcept;
  std::size_t data_header_bytes() const noexcept;
  void on_frame(const util::Bytes& frame);
  /// Arms the reassembly-expiry timer only while entries are pending, so
  /// an idle driver keeps no events queued (Simulator::run() terminates).
  void ensure_expiry_timer();
  // (src << 16) | seq — exact and collision-free because addr_bits <= 48.
  static std::uint64_t key_of(std::uint64_t src, std::uint16_t seq) noexcept {
    return (src << 16) | seq;
  }

  radio::Radio& radio_;
  Address source_;
  AddressedConfig config_;
  std::size_t payload_per_fragment_;
  aff::Reassembler reassembler_;
  std::uint16_t next_seq_ = 0;
  PacketHandler on_packet_;
  AddressedStats stats_;
  sim::EventHandle expiry_timer_;
};

}  // namespace retri::net
