// Decode oracle: both aff::decode overloads against the test-only
// reference (tests/reference_wire.*, the decoder and out-of-line field
// reads they replaced).
//
// For every id width in kIdBits, with instrumentation on and off, the
// three decoders see the same frames: random byte strings (half of them
// with a valid kind byte, so the parser gets past the first field, and
// half of them a header's length, so every kind's accept path is hit) and
// valid intro, data and notify frames that are bit-flipped, truncated,
// extended or have their kind byte swapped. They must agree on accept or
// reject, and on an accepted frame on the body's alternative, every field
// of it (a data payload must view the same bytes of the same frame) and
// the instrumentation id. The in-place overload decodes every frame into
// one reused DecodedFragment, so stale state from any earlier frame would
// show up as a mismatch.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "aff/wire.hpp"
#include "reference_wire.hpp"
#include "util/bitops.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace retri::aff {
namespace {

constexpr unsigned kIdBits[] = {1, 7, 8, 9, 13, 16, 33, 63, 64};

::testing::AssertionResult same_fragment(const DecodedFragment& want,
                                         const DecodedFragment& got) {
  if (want.body.index() != got.body.index()) {
    return ::testing::AssertionFailure()
           << "alternative " << got.body.index() << ", want "
           << want.body.index();
  }
  if (want.true_packet_id != got.true_packet_id) {
    return ::testing::AssertionFailure()
           << "true_packet_id " << got.true_packet_id.value_or(0) << " ("
           << got.true_packet_id.has_value() << "), want "
           << want.true_packet_id.value_or(0) << " ("
           << want.true_packet_id.has_value() << ")";
  }
  if (want.id() != got.id()) {
    return ::testing::AssertionFailure()
           << "id " << got.id().value() << ", want " << want.id().value();
  }
  if (const auto* wi = std::get_if<IntroFragment>(&want.body)) {
    const auto& g = std::get<IntroFragment>(got.body);
    if (wi->total_len != g.total_len || wi->checksum != g.checksum) {
      return ::testing::AssertionFailure()
             << "intro (" << g.total_len << ", " << g.checksum << "), want ("
             << wi->total_len << ", " << wi->checksum << ")";
    }
  } else if (const auto* wd = std::get_if<DataFragment>(&want.body)) {
    const auto& g = std::get<DataFragment>(got.body);
    if (wd->offset != g.offset || wd->payload.data() != g.payload.data() ||
        wd->payload.size() != g.payload.size()) {
      return ::testing::AssertionFailure()
             << "data (" << g.offset << ", " << g.payload.size()
             << " bytes), want (" << wd->offset << ", " << wd->payload.size()
             << " bytes), or a view of other bytes";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Decodes `frame` with the reference, the optional overload and the
/// in-place overload into `reused`, and requires all three to agree.
::testing::AssertionResult decoders_agree(const WireConfig& config,
                                          util::BytesView frame,
                                          DecodedFragment& reused) {
  const std::optional<DecodedFragment> want = reference::decode(config, frame);
  const std::optional<DecodedFragment> got = decode(config, frame);
  const bool accepted = decode(config, frame, reused);
  if (want.has_value() != got.has_value() || want.has_value() != accepted) {
    return ::testing::AssertionFailure()
           << "verdicts differ on [" << util::to_hex(frame)
           << "]: reference " << want.has_value() << ", optional "
           << got.has_value() << ", in place " << accepted;
  }
  if (!want) return ::testing::AssertionSuccess();
  if (auto r = same_fragment(*want, *got); !r) {
    return r << " (optional overload) on [" << util::to_hex(frame) << "]";
  }
  if (auto r = same_fragment(*want, reused); !r) {
    return r << " (in-place overload) on [" << util::to_hex(frame) << "]";
  }
  return ::testing::AssertionSuccess();
}

/// A valid frame of a random kind with random fields under `config`.
util::Bytes valid_frame(const WireConfig& config, util::Xoshiro256& rng) {
  const core::TransactionId id(rng.next() & util::low_mask(config.id_bits));
  const std::optional<std::uint64_t> true_id =
      config.instrumented ? std::optional<std::uint64_t>(rng.next())
                          : std::nullopt;
  switch (rng.below(3)) {
    case 0:
      return encode_intro(
          config,
          IntroFragment{id, static_cast<std::uint16_t>(rng.next()),
                        static_cast<std::uint32_t>(rng.next())},
          true_id);
    case 1: {
      const util::Bytes payload = util::random_payload(
          static_cast<std::size_t>(rng.below(30)), rng.next());
      return encode_data(
          config,
          DataFragment{id, static_cast<std::uint16_t>(rng.next()), payload},
          true_id);
    }
    default:
      return encode_notify(config, CollisionNotify{id});
  }
}

/// Every valid kind byte, and a few that are not.
constexpr std::uint8_t kKindBytes[] = {0x01, 0x02, 0x03, 0x81, 0x82,
                                       0x83, 0x00, 0x04, 0x80, 0xff};

TEST(WireDecodeOracle, RandomFramesMatchTheReference) {
  util::Xoshiro256 rng(0x5eed0001);
  DecodedFragment reused;
  constexpr int kFramesPerConfig = 50'000 / 18 + 1;  // 50k over 18 configs
  int accepted[3] = {0, 0, 0};  // by body alternative
  for (const unsigned bits : kIdBits) {
    for (const bool instrumented : {false, true}) {
      const WireConfig config{bits, instrumented};
      // Half the frames are exactly, or one byte over, a header's length.
      const std::size_t header_bytes[] = {intro_header_bytes(config),
                                          data_header_bytes(config),
                                          1 + util::bytes_for_bits(bits)};
      for (int i = 0; i < kFramesPerConfig; ++i) {
        const std::size_t length =
            rng.chance(0.5) ? header_bytes[rng.below(3)] + rng.below(2)
                            : static_cast<std::size_t>(rng.below(32));
        util::Bytes frame = util::random_payload(length, rng.next());
        if (!frame.empty() && rng.chance(0.5)) {
          frame[0] = kKindBytes[rng.below(6)];
        }
        ASSERT_TRUE(decoders_agree(config, frame, reused))
            << "id_bits=" << bits << " instrumented=" << instrumented;
        if (reference::decode(config, frame)) ++accepted[reused.body.index()];
      }
    }
  }
  // The generator reaches every kind's accept path, not only rejections.
  for (const int n : accepted) EXPECT_GT(n, 100);
}

TEST(WireDecodeOracle, MutatedValidFramesMatchTheReference) {
  util::Xoshiro256 rng(0x5eed0002);
  DecodedFragment reused;
  for (const unsigned bits : kIdBits) {
    for (const bool instrumented : {false, true}) {
      const WireConfig config{bits, instrumented};
      for (int i = 0; i < 600; ++i) {
        const util::Bytes valid = valid_frame(config, rng);
        ASSERT_TRUE(decode(config, valid).has_value());
        ASSERT_TRUE(decoders_agree(config, valid, reused));

        util::Bytes flipped = valid;  // one to three bit flips
        for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) {
          flipped[rng.below(flipped.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        ASSERT_TRUE(decoders_agree(config, flipped, reused));

        const util::Bytes truncated(
            valid.begin(),
            valid.begin() + static_cast<std::ptrdiff_t>(rng.below(valid.size())));
        ASSERT_TRUE(decoders_agree(config, truncated, reused));

        util::Bytes extended = valid;
        extended.push_back(static_cast<std::uint8_t>(rng.next()));
        ASSERT_TRUE(decoders_agree(config, extended, reused));

        for (const std::uint8_t kind : kKindBytes) {
          util::Bytes swapped = valid;
          swapped[0] = kind;
          ASSERT_TRUE(decoders_agree(config, swapped, reused))
              << "kind byte " << int{kind};
        }
      }
    }
  }
}

// A DecodedFragment that last held each alternative, with and without an
// instrumentation id, takes every kind of frame without keeping any of
// its old body or id; a rejected frame leaves the optional wrapper empty.
TEST(WireDecodeOracle, InPlaceDecodeLeavesNoStaleState) {
  const util::Bytes stale_payload{9, 9, 9};
  const std::vector<DecodedFragment> priors = [&] {
    std::vector<DecodedFragment> out;
    for (const std::optional<std::uint64_t> true_id :
         {std::optional<std::uint64_t>{}, std::optional<std::uint64_t>{77}}) {
      DecodedFragment d;
      d.true_packet_id = true_id;
      d.body = IntroFragment{core::TransactionId(5), 111, 0xabcdef};
      out.push_back(d);
      d.body = DataFragment{core::TransactionId(6), 222, stale_payload};
      out.push_back(d);
      d.body = CollisionNotify{core::TransactionId(7)};
      out.push_back(d);
    }
    return out;
  }();
  const util::Bytes payload{1, 2, 3, 4};
  for (const bool instrumented : {false, true}) {
    const WireConfig config{12, instrumented};
    const std::optional<std::uint64_t> true_id =
        instrumented ? std::optional<std::uint64_t>(0x1234) : std::nullopt;
    const std::vector<util::Bytes> frames = {
        encode_intro(config, {core::TransactionId(0x42), 300, 0xdeadbeef},
                     true_id),
        encode_data(config, {core::TransactionId(0x43), 512, payload}, true_id),
        encode_notify(config, CollisionNotify{core::TransactionId(0x44)})};
    for (const util::Bytes& frame : frames) {
      const std::optional<DecodedFragment> want =
          reference::decode(config, frame);
      ASSERT_TRUE(want.has_value());
      for (const DecodedFragment& prior : priors) {
        DecodedFragment out = prior;
        ASSERT_TRUE(decode(config, frame, out));
        EXPECT_TRUE(same_fragment(*want, out))
            << "prior alternative " << prior.body.index() << ", prior id "
            << prior.true_packet_id.has_value() << ", frame "
            << util::to_hex(frame);
      }
    }
    // Rejected: truncated, unknown kind, instrumentation mismatch.
    const util::Bytes& intro = frames[0];
    const util::Bytes truncated(intro.begin(), intro.end() - 1);
    const util::Bytes unknown_kind{0x04, 0x42, 0x00};
    const util::Bytes mismatched = encode_intro(
        WireConfig{12, !instrumented}, {core::TransactionId(1), 2, 3},
        instrumented ? std::nullopt : std::optional<std::uint64_t>(5));
    for (const util::Bytes& bad : {truncated, unknown_kind, mismatched}) {
      EXPECT_FALSE(decode(config, bad).has_value()) << util::to_hex(bad);
      EXPECT_FALSE(reference::decode(config, bad).has_value());
      for (const DecodedFragment& prior : priors) {
        DecodedFragment out = prior;
        EXPECT_FALSE(decode(config, bad, out)) << util::to_hex(bad);
      }
    }
  }
}

}  // namespace
}  // namespace retri::aff
