#include "radio/dispatcher.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "aff/driver.hpp"
#include "core/selector.hpp"
#include "net/dynamic_alloc.hpp"

namespace retri::radio {
namespace {

class DispatcherTest : public ::testing::Test {
 protected:
  DispatcherTest()
      : medium(sim, sim::Topology::full_mesh(3), {}, 11),
        tx(medium, 0, RadioConfig{}, EnergyModel{}, 1),
        rx(medium, 1, RadioConfig{}, EnergyModel{}, 2) {}

  sim::Simulator sim;
  sim::BroadcastMedium medium;
  Radio tx;
  Radio rx;
};

TEST_F(DispatcherTest, RoutesByKindByte) {
  FrameDispatcher dispatcher(rx);
  std::vector<std::uint8_t> a_kinds;
  std::vector<std::uint8_t> b_kinds;
  dispatcher.route(0x01, 0x03, [&](sim::NodeId, const util::Bytes& f) {
    a_kinds.push_back(f[0]);
  });
  dispatcher.route(0x21, 0x22, [&](sim::NodeId, const util::Bytes& f) {
    b_kinds.push_back(f[0]);
  });

  tx.send({0x01, 0xaa});
  tx.send({0x03, 0xbb});
  tx.send({0x21, 0xcc});
  sim.run();

  EXPECT_EQ(a_kinds, (std::vector<std::uint8_t>{0x01, 0x03}));
  EXPECT_EQ(b_kinds, (std::vector<std::uint8_t>{0x21}));
  EXPECT_EQ(dispatcher.dispatched(), 3u);
  EXPECT_EQ(dispatcher.unrouted(), 0u);
}

TEST_F(DispatcherTest, InstrumentationFlagBitIsIgnoredForRouting) {
  FrameDispatcher dispatcher(rx);
  int hits = 0;
  dispatcher.route(0x01, 0x01, [&](sim::NodeId, const util::Bytes&) { ++hits; });
  tx.send({0x81, 0x00});  // kind 0x01 with the 0x80 instrumentation flag
  sim.run();
  EXPECT_EQ(hits, 1);
}

TEST_F(DispatcherTest, UnroutedFramesGoToDefault) {
  FrameDispatcher dispatcher(rx);
  int fallback_hits = 0;
  dispatcher.set_default(
      [&](sim::NodeId, const util::Bytes&) { ++fallback_hits; });
  dispatcher.route(0x01, 0x01, [](sim::NodeId, const util::Bytes&) {});

  tx.send({0x55});
  tx.send(util::Bytes{});  // empty frame is also unrouted
  sim.run();
  // Note: the radio rejects truly empty sends? No — empty frames have size
  // 0 <= max, they transmit; the dispatcher treats them as unrouted.
  EXPECT_EQ(dispatcher.unrouted(), 2u);
  EXPECT_EQ(fallback_hits, 2);
}

TEST_F(DispatcherTest, AdoptCurrentRehomesAServiceCallback) {
  // An AFF driver installs its own radio callback; adopt_current moves it
  // under the dispatcher so another service can share the radio.
  FrameDispatcher dispatcher(rx);

  core::UniformSelector rx_selector(core::IdSpace(8), 3);
  aff::AffDriverConfig config;
  config.wire.id_bits = 8;
  aff::AffDriver rx_driver(rx, rx_selector, config, 1);  // overwrites callback
  dispatcher.adopt_current(rx, 0x01, 0x03);              // re-homes it

  int packets = 0;
  rx_driver.set_packet_handler([&](util::BytesView) { ++packets; });

  // Also give the dynamic allocator's kinds a route (simulated service).
  int alloc_frames = 0;
  dispatcher.route(0x21, 0x22,
                   [&](sim::NodeId, const util::Bytes&) { ++alloc_frames; });

  // Send an AFF packet and a CLAIM-like frame from the other node.
  core::UniformSelector tx_selector(core::IdSpace(8), 4);
  aff::AffDriver tx_driver(tx, tx_selector, config, 2);
  ASSERT_TRUE(tx_driver.send_packet(util::random_payload(40, 5)).ok());
  tx.send({0x21, 0x07, 0x01, 0x02, 0x03, 0x04});  // claim-shaped frame
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(2));

  EXPECT_EQ(packets, 1);
  EXPECT_EQ(alloc_frames, 1);
}

TEST_F(DispatcherTest, CoResidentAffAndDynAllocShareOneRadio) {
  // Full composition: the same node runs address allocation AND AFF data
  // transfer. Construct services in sequence, adopting each callback.
  FrameDispatcher dispatcher(rx);

  core::UniformSelector selector(core::IdSpace(8), 6);
  aff::AffDriverConfig aff_config;
  aff_config.wire.id_bits = 8;
  aff::AffDriver driver(rx, selector, aff_config, 7);
  dispatcher.adopt_current(rx, 0x01, 0x03);

  net::DynAllocNode alloc(rx, net::DynAllocConfig{}, 8);
  dispatcher.adopt_current(rx, 0x21, 0x22);

  int packets = 0;
  driver.set_packet_handler([&](util::BytesView) { ++packets; });

  alloc.start();
  core::UniformSelector tx_selector(core::IdSpace(8), 9);
  aff::AffDriver tx_driver(tx, tx_selector, aff_config, 10);
  ASSERT_TRUE(tx_driver.send_packet(util::random_payload(64, 11)).ok());

  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(5));
  EXPECT_EQ(packets, 1);
  EXPECT_TRUE(alloc.has_address());
}

}  // namespace
}  // namespace retri::radio
