// Wire-decoder fuzzing across every protocol in the repository.
//
// Every service parses frames straight off a broadcast radio, so every
// decoder is reachable by arbitrary bytes (corruption, foreign protocols,
// attackers). Two generators per target: pure random byte strings, and
// mutated valid frames (bit flips, truncations, extensions) — the latter
// exercise deep parser paths that random bytes rarely reach. The assertion
// everywhere is the same: no crash, no undefined behaviour, and the stack
// keeps serving valid traffic afterwards.
#include <gtest/gtest.h>

#include <memory>

#include "aff/driver.hpp"
#include "apps/codebook.hpp"
#include "apps/diffusion.hpp"
#include "apps/interest.hpp"
#include "net/addressed_frag.hpp"
#include "net/central_alloc.hpp"
#include "net/dynamic_alloc.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"
#include "util/random.hpp"

namespace retri {
namespace {

/// Produces fuzz inputs: random strings and mutations of a seed corpus.
class FrameFuzzer {
 public:
  explicit FrameFuzzer(std::uint64_t seed) : rng_(seed) {}

  void add_corpus(util::Bytes frame) { corpus_.push_back(std::move(frame)); }

  util::Bytes next() {
    if (corpus_.empty() || rng_.chance(0.4)) {
      return util::random_payload(static_cast<std::size_t>(rng_.below(30)),
                                  rng_.next());
    }
    util::Bytes frame =
        corpus_[static_cast<std::size_t>(rng_.below(corpus_.size()))];
    switch (rng_.below(4)) {
      case 0:  // bit flip
        if (!frame.empty()) {
          frame[static_cast<std::size_t>(rng_.below(frame.size()))] ^=
              static_cast<std::uint8_t>(1 << rng_.below(8));
        }
        break;
      case 1:  // truncate
        frame.resize(static_cast<std::size_t>(rng_.below(frame.size() + 1)));
        break;
      case 2:  // extend with junk
        for (std::uint64_t i = 0, n = rng_.below(8); i < n; ++i) {
          frame.push_back(static_cast<std::uint8_t>(rng_.next()));
        }
        break;
      case 3:  // splice two corpus frames
        if (corpus_.size() > 1) {
          const util::Bytes& other =
              corpus_[static_cast<std::size_t>(rng_.below(corpus_.size()))];
          const std::size_t cut =
              static_cast<std::size_t>(rng_.below(frame.size() + 1));
          frame.resize(cut);
          frame.insert(frame.end(), other.begin(), other.end());
          if (frame.size() > 27) frame.resize(27);
        }
        break;
    }
    return frame;
  }

 private:
  util::Xoshiro256 rng_;
  std::vector<util::Bytes> corpus_;
};

constexpr int kFuzzIterations = 4000;

TEST(FuzzDecoders, AffWireDecoder) {
  FrameFuzzer fuzzer(1);
  const aff::WireConfig config{8, false};
  const aff::WireConfig inst{8, true};
  fuzzer.add_corpus(aff::encode_intro(config, {core::TransactionId(3), 80, 7}));
  fuzzer.add_corpus(aff::encode_data(config, {core::TransactionId(3), 23,
                                              util::random_payload(23, 1)}));
  fuzzer.add_corpus(aff::encode_notify(config, {core::TransactionId(3)}));
  fuzzer.add_corpus(aff::encode_intro(inst, {core::TransactionId(3), 80, 7}, 9));
  for (int i = 0; i < kFuzzIterations; ++i) {
    (void)aff::decode(config, fuzzer.next());
    (void)aff::decode(inst, fuzzer.next());
  }
}

util::Bytes reencode(const aff::WireConfig& config,
                     const aff::DecodedFragment& decoded) {
  if (const auto* intro = std::get_if<aff::IntroFragment>(&decoded.body)) {
    return aff::encode_intro(config, *intro, decoded.true_packet_id);
  }
  if (const auto* data = std::get_if<aff::DataFragment>(&decoded.body)) {
    return aff::encode_data(config, *data, decoded.true_packet_id);
  }
  return aff::encode_notify(config,
                            std::get<aff::CollisionNotify>(decoded.body));
}

TEST(FuzzDecoders, AffWireRoundTripProperty) {
  // Any frame the decoder accepts must re-encode to exactly the bytes
  // that arrived: the decoder may not normalize, mask, or tolerate
  // trailing junk, or a corrupted frame could alias to a valid one (the
  // historical uvar padding-bit bug, pinned below).
  for (const unsigned id_bits : {5u, 8u, 12u, 16u}) {
    for (const bool instrumented : {false, true}) {
      const aff::WireConfig config{id_bits, instrumented};
      const std::uint64_t max_id = (std::uint64_t{1} << id_bits) - 1;
      FrameFuzzer fuzzer(1000 + id_bits * 2 + (instrumented ? 1 : 0));
      fuzzer.add_corpus(aff::encode_intro(
          config, {core::TransactionId(max_id), 80, 0xdeadbeef},
          instrumented ? std::optional<std::uint64_t>{42} : std::nullopt));
      fuzzer.add_corpus(aff::encode_data(
          config, {core::TransactionId(1), 23, util::random_payload(23, 2)},
          instrumented ? std::optional<std::uint64_t>{43} : std::nullopt));
      fuzzer.add_corpus(
          aff::encode_notify(config, {core::TransactionId(max_id / 2)}));
      for (int i = 0; i < kFuzzIterations; ++i) {
        const util::Bytes frame = fuzzer.next();
        const auto decoded = aff::decode(config, frame);
        if (!decoded) continue;
        EXPECT_EQ(reencode(config, *decoded), frame)
            << "id_bits=" << id_bits << " instrumented=" << instrumented
            << " frame=" << util::to_hex(frame);
      }
    }
  }
}

TEST(FuzzDecoders, NonzeroIdPaddingBitsAreRejected) {
  // Regression: BufferReader::uvar used to mask padding bits off, so a
  // frame whose 5-bit id field arrived with corrupted high bits decoded
  // to a valid (different-bytes) frame. The decoder now uses uvar_strict.
  const aff::WireConfig config{5, false};
  for (util::Bytes frame :
       {aff::encode_intro(config, {core::TransactionId(3), 80, 7}),
        aff::encode_data(config,
                         {core::TransactionId(3), 0, util::Bytes{1, 2}}),
        aff::encode_notify(config, {core::TransactionId(3)})}) {
    ASSERT_TRUE(aff::decode(config, frame).has_value());
    frame[1] |= 0x80;  // id byte: bit above the 5-bit width
    EXPECT_FALSE(aff::decode(config, frame).has_value())
        << util::to_hex(frame);
  }
}

TEST(FuzzDecoders, CodebookMessages) {
  FrameFuzzer fuzzer(2);
  const apps::AttributeSet attrs = {{"type", "x"}, {"unit", "y"}};
  fuzzer.add_corpus(apps::encode_definition(8, core::TransactionId(5), attrs));
  fuzzer.add_corpus(
      apps::encode_compressed(8, core::TransactionId(5), util::Bytes{1, 2}));
  for (int i = 0; i < kFuzzIterations; ++i) {
    (void)apps::decode_codebook_message(8, fuzzer.next());
  }
}

TEST(FuzzDecoders, AttributeDeserializer) {
  FrameFuzzer fuzzer(3);
  fuzzer.add_corpus(apps::serialize_attributes(
      {{"type", "seismic"}, {"region", "north-east"}}));
  for (int i = 0; i < kFuzzIterations; ++i) {
    (void)apps::deserialize_attributes(fuzzer.next());
  }
}

/// Generic harness: blast fuzz frames at a victim service over the radio,
/// then verify the medium stayed consistent and nothing crashed.
template <typename MakeVictim>
void fuzz_service_over_radio(std::uint64_t seed, MakeVictim make_victim,
                             std::vector<util::Bytes> corpus) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(2), {}, seed);
  radio::Radio victim_radio(medium, 0, radio::RadioConfig{},
                            radio::EnergyModel{}, seed + 1);
  auto victim = make_victim(victim_radio);
  (void)victim;

  radio::Radio attacker(medium, 1, radio::RadioConfig{}, radio::EnergyModel{},
                        seed + 2);
  FrameFuzzer fuzzer(seed + 3);
  for (auto& frame : corpus) fuzzer.add_corpus(std::move(frame));

  for (int i = 0; i < 600; ++i) {
    attacker.send(fuzzer.next());
    if (i % 50 == 0) sim.run();
  }
  sim.run();
  SUCCEED();  // surviving without crashing is the assertion
}

TEST(FuzzServices, AffDriver) {
  const aff::WireConfig wire{8, false};
  std::vector<util::Bytes> corpus = {
      aff::encode_intro(wire, {core::TransactionId(3), 80, 7}),
      aff::encode_data(wire,
                       {core::TransactionId(3), 0, util::random_payload(23, 1)}),
  };
  core::UniformSelector selector(core::IdSpace(8), 5);
  fuzz_service_over_radio(
      10,
      [&selector](radio::Radio& radio) {
        aff::AffDriverConfig config;
        config.wire.id_bits = 8;
        return std::make_unique<aff::AffDriver>(radio, selector, config, 0);
      },
      std::move(corpus));
}

TEST(FuzzServices, AddressedDriver) {
  fuzz_service_over_radio(
      11,
      [](radio::Radio& radio) {
        return std::make_unique<net::AddressedDriver>(radio, net::Address(5),
                                                      net::AddressedConfig{});
      },
      {util::Bytes{0x11, 0x00, 0x05, 0x00, 0x01, 0x00, 0x50, 0, 0, 0, 1},
       util::Bytes{0x12, 0x00, 0x05, 0x00, 0x01, 0x00, 0x00, 0xaa, 0xbb}});
}

TEST(FuzzServices, DynAllocNode) {
  fuzz_service_over_radio(
      12,
      [](radio::Radio& radio) {
        auto node = std::make_unique<net::DynAllocNode>(
            radio, net::DynAllocConfig{}, 7);
        node->start();
        return node;
      },
      {util::Bytes{0x21, 0x02, 0x03, 1, 2, 3, 4},
       util::Bytes{0x22, 0x02, 0x03}});
}

TEST(FuzzServices, CentralAllocClientAndServer) {
  fuzz_service_over_radio(
      13,
      [](radio::Radio& radio) {
        return std::make_unique<net::CentralAllocServer>(radio, 10);
      },
      {util::Bytes{0x25, 1, 2, 3, 4}, util::Bytes{0x26, 1, 2, 3, 4, 0, 9}});
  fuzz_service_over_radio(
      14,
      [](radio::Radio& radio) {
        auto client = std::make_unique<net::CentralAllocClient>(
            radio, net::CentralClientConfig{}, 8);
        client->start();
        return client;
      },
      {util::Bytes{0x26, 1, 2, 3, 4, 0, 9}, util::Bytes{0x27, 1, 2, 3, 4}});
}

TEST(FuzzServices, DiffusionNode) {
  core::UniformSelector selector(core::IdSpace(8), 17);
  const auto interest =
      apps::serialize_attributes({{"t", "x"}});
  util::Bytes interest_frame = {0x52, 0x07, 0, 0, 0, 1, 3};
  interest_frame.insert(interest_frame.end(), interest.begin(), interest.end());
  fuzz_service_over_radio(
      18,
      [&selector](radio::Radio& radio) {
        return std::make_unique<apps::DiffusionNode>(
            radio, selector, apps::DiffusionConfig{}, 1);
      },
      {interest_frame,
       util::Bytes{0x53, 0x07, 0x09, 0, 0, 0, 1, 3, 0x12, 0x34}});
}

TEST(FuzzServices, InterestSensorAndSink) {
  core::UniformSelector selector(core::IdSpace(8), 19);
  fuzz_service_over_radio(
      20,
      [&selector](radio::Radio& radio) {
        auto sensor = std::make_unique<apps::InterestSensor>(
            radio, selector, apps::SensorConfig{}, 1,
            [] { return std::uint16_t{5}; });
        sensor->start(sim::TimePoint::origin() + sim::Duration::seconds(1));
        return sensor;
      },
      {util::Bytes{0x31, 0x07, 0, 0, 0, 1, 0x12, 0x34},
       util::Bytes{0x32, 0x07, 0, 0, 0, 1}});
  fuzz_service_over_radio(
      21,
      [](radio::Radio& radio) {
        return std::make_unique<apps::InterestSink>(radio, apps::SinkConfig{});
      },
      {util::Bytes{0x31, 0x07, 0, 0, 0, 1, 0x12, 0x34}});
}

}  // namespace
}  // namespace retri
