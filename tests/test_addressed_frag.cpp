#include "net/addressed_frag.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/random.hpp"

namespace retri::net {
namespace {

struct Node {
  Node(sim::BroadcastMedium& medium, sim::NodeId id, Address addr,
       AddressedConfig config)
      : radio(medium, id, radio::RadioConfig{}, radio::EnergyModel{}, 500 + id),
        driver(radio, addr, config) {
    driver.set_packet_handler([this](Address from, util::BytesView p) {
      received.emplace_back(from, util::Bytes(p.begin(), p.end()));
    });
  }

  radio::Radio radio;
  AddressedDriver driver;
  std::vector<std::pair<Address, util::Bytes>> received;
};

class AddressedFragTest : public ::testing::Test {
 protected:
  AddressedFragTest() : medium(sim, sim::Topology::full_mesh(6), {}, 3) {}

  sim::Simulator sim;
  sim::BroadcastMedium medium;
  AddressedConfig config{};  // defaults: 16-bit addresses
};

TEST_F(AddressedFragTest, PacketRoundTripWithSourceIdentity) {
  Node tx(medium, 0, Address(0x1234), config);
  Node rx(medium, 1, Address(0x5678), config);

  const util::Bytes packet = util::random_payload(80, 21);
  ASSERT_TRUE(tx.driver.send_packet(packet).ok());
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(2));

  ASSERT_EQ(rx.received.size(), 1u);
  EXPECT_EQ(rx.received[0].first, Address(0x1234));  // source recovered
  EXPECT_EQ(rx.received[0].second, packet);
}

TEST_F(AddressedFragTest, ConcurrentSendersNeverCollide) {
  // The defining property of the baseline: (address, seq) identifiers are
  // guaranteed unique, so concurrent transmissions always reassemble.
  Node rx(medium, 0, Address(0), config);
  std::vector<std::unique_ptr<Node>> senders;
  for (sim::NodeId i = 1; i <= 5; ++i) {
    senders.push_back(
        std::make_unique<Node>(medium, i, Address(i), config));
  }
  for (int round = 0; round < 10; ++round) {
    for (auto& s : senders) {
      ASSERT_TRUE(
          s->driver.send_packet(util::random_payload(80, 600u + static_cast<unsigned>(round))).ok());
    }
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(60));
  EXPECT_EQ(rx.received.size(), 50u);
  EXPECT_EQ(rx.driver.reassembler().stats().conflicting_writes, 0u);
  EXPECT_EQ(rx.driver.reassembler().stats().checksum_failed, 0u);
}

TEST_F(AddressedFragTest, SequenceWrapsWithoutAmbiguityOverTime) {
  Node tx(medium, 0, Address(7), config);
  Node rx(medium, 1, Address(8), config);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tx.driver.send_packet(util::random_payload(30, 700u + static_cast<unsigned>(i))).ok());
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(30));
  EXPECT_EQ(rx.received.size(), 30u);
}

TEST_F(AddressedFragTest, HeaderCostExceedsAffHeaderCost) {
  // 16-bit address + 16-bit seq = 4 header bytes vs AFF's 1-byte id at
  // H = 8: the addressed driver fits less payload per fragment.
  Node addressed(medium, 0, Address(1), config);
  EXPECT_EQ(addressed.driver.payload_per_fragment(), 27u - (1 + 2 + 2 + 2));
  // 80-byte packet: AFF needs 5 frames (23 B/fragment), addressed needs 5
  // at 20 B/fragment -> crossover shows at slightly larger packets.
  EXPECT_EQ(addressed.driver.frame_count(81), 1 + 5u);
}

TEST_F(AddressedFragTest, SendErrors) {
  Node tx(medium, 0, Address(1), config);
  const auto empty = tx.driver.send_packet({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error(), StaticSendError::kEmpty);
  const auto huge = tx.driver.send_packet(util::Bytes(70000, 1));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.error(), StaticSendError::kTooLarge);
}

TEST_F(AddressedFragTest, WideAddressesStillWork) {
  AddressedConfig wide;
  wide.addr_bits = 48;
  Node tx(medium, 0, Address(0xdeadbeef1234ULL), wide);
  Node rx(medium, 1, Address(0x1), wide);
  const util::Bytes packet = util::random_payload(64, 22);
  ASSERT_TRUE(tx.driver.send_packet(packet).ok());
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(5));
  ASSERT_EQ(rx.received.size(), 1u);
  EXPECT_EQ(rx.received[0].first, Address(0xdeadbeef1234ULL));
  EXPECT_EQ(rx.received[0].second, packet);
}

TEST_F(AddressedFragTest, UndecodableFramesCounted) {
  Node rx(medium, 1, Address(2), config);
  radio::Radio junk(medium, 0, radio::RadioConfig{}, radio::EnergyModel{}, 1);
  junk.send({0x99});
  sim.run();
  EXPECT_EQ(rx.driver.stats().undecodable_frames, 1u);
}

}  // namespace
}  // namespace retri::net
