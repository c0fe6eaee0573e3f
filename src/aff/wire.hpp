// AFF wire format.
//
// Mirrors the paper's driver (§5): a packet is announced by a "packet
// introduction" fragment carrying the packet's AFF identifier, total length,
// and checksum; each subsequent data fragment carries the AFF identifier and
// the byte offset of its payload. A third fragment kind carries the §3.2
// "identifier collision notification" a receiver may send.
//
// Layout (all integers big-endian):
//   intro:  [kind:1][aff_id:ceil(H/8)][total_len:2][checksum:4]
//   data:   [kind:1][aff_id:ceil(H/8)][offset:2][payload...]
//   notify: [kind:1][aff_id:ceil(H/8)]
//
// Instrumented mode (§5.1's validation driver) augments intro and data
// fragments with the sender's guaranteed-unique packet id (8 bytes) after
// the kind byte; the flag bit in `kind` marks its presence. The receiver
// uses it only to count what *would* have been lost — never to reassemble
// the realistic way.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>

#include "core/identifier.hpp"
#include "util/bytes.hpp"

namespace retri::aff {

enum class FragmentKind : std::uint8_t {
  kIntro = 0x01,
  kData = 0x02,
  kCollisionNotify = 0x03,
};

/// Set on the kind byte when the instrumentation id is present.
inline constexpr std::uint8_t kInstrumentedFlag = 0x80;

struct IntroFragment {
  core::TransactionId id;
  std::uint16_t total_len = 0;
  std::uint32_t checksum = 0;
};

struct DataFragment {
  core::TransactionId id;
  std::uint16_t offset = 0;
  /// On decode this is a zero-copy view into the frame passed to decode();
  /// it is valid only as long as that buffer. Callers that keep the payload
  /// past the frame's lifetime must copy it (Reassembler does).
  util::BytesView payload;
};

struct CollisionNotify {
  core::TransactionId id;
};

/// A decoded frame: the fragment body plus, in instrumented mode, the
/// sender's guaranteed-unique packet id.
struct DecodedFragment {
  std::variant<IntroFragment, DataFragment, CollisionNotify> body;
  std::optional<std::uint64_t> true_packet_id;

  const core::TransactionId& id() const;
};

/// Wire parameters shared by encoder and decoder. Both sides must agree on
/// id_bits — the identifier's wire width — exactly as the testbed driver's
/// compile-time configuration did.
struct WireConfig {
  unsigned id_bits = 8;
  bool instrumented = false;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field (util/validate.hpp message format).
WireConfig validated(WireConfig config);

/// Header bytes an intro fragment occupies (kind + [true id] + id + len + checksum).
std::size_t intro_header_bytes(const WireConfig& config) noexcept;
/// Header bytes a data fragment occupies before its payload.
std::size_t data_header_bytes(const WireConfig& config) noexcept;

util::Bytes encode_intro(const WireConfig& config, const IntroFragment& f,
                         std::optional<std::uint64_t> true_packet_id = std::nullopt);
util::Bytes encode_data(const WireConfig& config, const DataFragment& f,
                        std::optional<std::uint64_t> true_packet_id = std::nullopt);
util::Bytes encode_notify(const WireConfig& config, const CollisionNotify& f);

/// The same encodings written into `out`, replacing its contents but
/// keeping its capacity: one buffer reused for every frame encodes without
/// allocating once it has held the largest.
void encode_intro(const WireConfig& config, const IntroFragment& f,
                  std::optional<std::uint64_t> true_packet_id, util::Bytes& out);
void encode_data(const WireConfig& config, const DataFragment& f,
                 std::optional<std::uint64_t> true_packet_id, util::Bytes& out);
void encode_notify(const WireConfig& config, const CollisionNotify& f,
                   util::Bytes& out);

/// Decodes any AFF frame into `out`, emplacing the body's alternative and
/// setting or clearing true_packet_id in place. Returns false on
/// truncation, unknown kind, or an instrumentation flag mismatching the
/// configuration — a malformed frame is dropped, never trusted; `out` is
/// then left valid but unspecified.
bool decode(const WireConfig& config, util::BytesView frame,
            DecodedFragment& out);

/// The same decode returning its result; nullopt for a rejected frame.
std::optional<DecodedFragment> decode(const WireConfig& config,
                                      util::BytesView frame);

}  // namespace retri::aff
