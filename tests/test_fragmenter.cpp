#include "aff/fragmenter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "util/bitops.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace retri::aff {
namespace {

FragmenterConfig rpc_config(unsigned id_bits = 8, bool instrumented = false) {
  return FragmenterConfig{WireConfig{id_bits, instrumented}, 27};
}

TEST(Fragmenter, PaperGeometryEightyBytePacketIsFiveFragments) {
  // §5.1: 80-byte packets over 27-byte frames fragment into "a single
  // fragment introduction and four data fragments".
  const Fragmenter frag(rpc_config(8));
  // data header = 1 kind + 1 id + 2 offset = 4 bytes -> 23 payload bytes.
  EXPECT_EQ(frag.payload_per_fragment(), 23u);
  EXPECT_EQ(frag.frame_count(80), 5u);

  const auto frames =
      frag.fragment(util::random_payload(80, 1), core::TransactionId(7));
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames.value().size(), 5u);
  for (const auto& f : frames.value()) {
    EXPECT_LE(f.size(), 27u);
  }
}

TEST(Fragmenter, IntroCarriesLengthAndChecksum) {
  const Fragmenter frag(rpc_config(8));
  const util::Bytes packet = util::random_payload(50, 2);
  const auto frames = frag.fragment(packet, core::TransactionId(3));
  ASSERT_TRUE(frames.ok());

  const auto decoded = decode(rpc_config(8).wire, frames.value()[0]);
  ASSERT_TRUE(decoded.has_value());
  const auto* intro = std::get_if<IntroFragment>(&decoded->body);
  ASSERT_NE(intro, nullptr);
  EXPECT_EQ(intro->id.value(), 3u);
  EXPECT_EQ(intro->total_len, 50);
  EXPECT_EQ(intro->checksum, util::crc32(packet));
}

TEST(Fragmenter, AllFragmentsShareTheIdentifier) {
  const Fragmenter frag(rpc_config(8));
  const auto frames =
      frag.fragment(util::random_payload(100, 3), core::TransactionId(0x5a));
  ASSERT_TRUE(frames.ok());
  for (const auto& f : frames.value()) {
    const auto decoded = decode(rpc_config(8).wire, f);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->id().value(), 0x5au);
  }
}

TEST(Fragmenter, OffsetsTileThePacketExactly) {
  const Fragmenter frag(rpc_config(8));
  const util::Bytes packet = util::random_payload(100, 4);
  const auto frames = frag.fragment(packet, core::TransactionId(1));
  ASSERT_TRUE(frames.ok());

  util::Bytes reassembled(packet.size(), 0);
  std::size_t covered = 0;
  for (std::size_t i = 1; i < frames.value().size(); ++i) {
    const auto decoded = decode(rpc_config(8).wire, frames.value()[i]);
    ASSERT_TRUE(decoded.has_value());
    const auto* data = std::get_if<DataFragment>(&decoded->body);
    ASSERT_NE(data, nullptr);
    for (std::size_t b = 0; b < data->payload.size(); ++b) {
      reassembled[data->offset + b] = data->payload[b];
    }
    covered += data->payload.size();
  }
  EXPECT_EQ(covered, packet.size());
  EXPECT_EQ(reassembled, packet);
}

TEST(Fragmenter, SingleFragmentPacket) {
  const Fragmenter frag(rpc_config(8));
  const auto frames = frag.fragment(util::random_payload(23, 5),
                                    core::TransactionId(2));
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames.value().size(), 2u);  // intro + one data
}

TEST(Fragmenter, OneBytePacket) {
  const Fragmenter frag(rpc_config(8));
  const auto frames = frag.fragment(util::Bytes{0xff}, core::TransactionId(2));
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames.value().size(), 2u);
  EXPECT_EQ(frames.value()[1].size(), data_header_bytes(rpc_config(8).wire) + 1);
}

TEST(Fragmenter, EmptyPacketRejected) {
  const Fragmenter frag(rpc_config(8));
  const auto frames = frag.fragment({}, core::TransactionId(1));
  ASSERT_FALSE(frames.ok());
  EXPECT_EQ(frames.error(), FragmentError::kEmptyPacket);
}

TEST(Fragmenter, OversizedPacketRejected) {
  const Fragmenter frag(rpc_config(8));
  const auto frames = frag.fragment(util::Bytes(0x10000, 1), core::TransactionId(1));
  ASSERT_FALSE(frames.ok());
  EXPECT_EQ(frames.error(), FragmentError::kPacketTooLarge);
}

TEST(Fragmenter, MaxSizePacketAccepted) {
  const Fragmenter frag(rpc_config(8));
  const auto frames =
      frag.fragment(util::Bytes(0xffff, 1), core::TransactionId(1));
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames.value().size(), frag.frame_count(0xffff));
}

TEST(Fragmenter, TinyFrameRejected) {
  // A frame too small for even a 1-byte payload after the data header.
  FragmenterConfig config = rpc_config(8);
  config.max_frame_bytes = data_header_bytes(config.wire);
  const Fragmenter frag(config);
  const auto frames = frag.fragment(util::Bytes{1}, core::TransactionId(1));
  ASSERT_FALSE(frames.ok());
  EXPECT_EQ(frames.error(), FragmentError::kFrameTooSmall);
}

TEST(Fragmenter, WiderIdsShrinkPayloadPerFragment) {
  const Fragmenter narrow(rpc_config(8));   // 1 id byte
  const Fragmenter wide(rpc_config(16));    // 2 id bytes
  EXPECT_EQ(narrow.payload_per_fragment(), wide.payload_per_fragment() + 1);
  EXPECT_GE(wide.frame_count(80), narrow.frame_count(80));
}

TEST(Fragmenter, InstrumentedModeShrinksPayloadByEight) {
  const Fragmenter plain(rpc_config(8, false));
  const Fragmenter inst(rpc_config(8, true));
  EXPECT_EQ(inst.payload_per_fragment() + 8, plain.payload_per_fragment());
  const auto frames = inst.fragment(util::random_payload(30, 6),
                                    core::TransactionId(1), 0x1234);
  ASSERT_TRUE(frames.ok());
  const auto decoded = decode(WireConfig{8, true}, frames.value()[0]);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->true_packet_id, 0x1234u);
}

// The fragment loop as it stood before frames were encoded one at a time:
// the reference both encode paths must match byte for byte.
std::vector<util::Bytes> reference_frames(const Fragmenter& frag,
                                          util::BytesView packet,
                                          core::TransactionId id,
                                          std::uint64_t true_id) {
  const WireConfig& wire = frag.config().wire;
  const std::optional<std::uint64_t> instrumented =
      wire.instrumented ? std::optional<std::uint64_t>(true_id) : std::nullopt;
  std::vector<util::Bytes> frames;
  frames.push_back(encode_intro(
      wire,
      IntroFragment{id, static_cast<std::uint16_t>(packet.size()),
                    util::crc32(packet)},
      instrumented));
  const std::size_t step = frag.payload_per_fragment();
  for (std::size_t offset = 0; offset < packet.size(); offset += step) {
    const std::size_t n = std::min(step, packet.size() - offset);
    frames.push_back(encode_data(
        wire,
        DataFragment{id, static_cast<std::uint16_t>(offset),
                     packet.subspan(offset, n)},
        instrumented));
  }
  return frames;
}

// Frames encoded one at a time into a single reused buffer, as AffDriver
// sends them, are byte-identical to fragment()'s fresh buffers and to the
// reference loop, for packet lengths 1-300 and 65,535, id widths 1, 8, 13
// and 64, instrumented or not, and frame limits 16, 17, 27 and 255. The
// buffer carries over from each packet to the next, longest first, so a
// stale tail would show. frames_for() reports the same error fragment()
// does, for lengths 0 and 65,536 and for every geometry too small to fit.
TEST(Fragmenter, ReusedBufferFramesMatchFreshFragments) {
  std::vector<std::size_t> lengths{0x10000, 0xffff};
  for (std::size_t n = 300; n >= 1; --n) lengths.push_back(n);
  lengths.push_back(0);
  const std::uint64_t true_id = 0x0123456789abcdefULL;
  util::Bytes reused;
  for (const unsigned id_bits : {1u, 8u, 13u, 64u}) {
    for (const bool instrumented : {false, true}) {
      for (const std::size_t limit : {16u, 17u, 27u, 255u}) {
        SCOPED_TRACE(::testing::Message()
                     << "id_bits " << id_bits << ", instrumented "
                     << instrumented << ", frame limit " << limit);
        const Fragmenter frag(
            FragmenterConfig{WireConfig{id_bits, instrumented}, limit});
        const core::TransactionId id(util::low_mask(id_bits));
        for (const std::size_t n : lengths) {
          const util::Bytes packet = util::random_payload(n, n);
          const auto count = frag.frames_for(packet);
          const auto fresh = frag.fragment(packet, id, true_id);
          ASSERT_EQ(count.ok(), fresh.ok()) << n << " bytes";
          if (!count.ok()) {
            EXPECT_EQ(count.error(), fresh.error()) << n << " bytes";
            EXPECT_EQ(count.error(),
                      n == 0        ? FragmentError::kEmptyPacket
                      : n > 0xffff  ? FragmentError::kPacketTooLarge
                                    : FragmentError::kFrameTooSmall)
                << n << " bytes";
            continue;
          }
          ASSERT_EQ(fresh.value(), reference_frames(frag, packet, id, true_id))
              << n << " bytes";
          ASSERT_EQ(count.value(), fresh.value().size()) << n << " bytes";
          for (std::size_t i = 0; i < count.value(); ++i) {
            frag.encode_frame(packet, id, true_id, i, reused);
            ASSERT_EQ(reused, fresh.value()[i])
                << n << " bytes, frame " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace retri::aff
