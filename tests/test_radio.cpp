#include "radio/radio.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace retri::radio {
namespace {

class RadioTest : public ::testing::Test {
 protected:
  RadioTest()
      : medium(sim, sim::Topology::full_mesh(3), {}, 7) {}

  Radio make_radio(sim::NodeId node, RadioConfig config = {}) {
    return Radio(medium, node, config, EnergyModel{}, 100 + node);
  }

  sim::Simulator sim;
  sim::BroadcastMedium medium;
};

TEST_F(RadioTest, FrameRoundTrip) {
  Radio tx = make_radio(0);
  Radio rx = make_radio(1);
  std::vector<util::Bytes> received;
  rx.set_receive_callback([&](sim::NodeId from, const util::Bytes& f) {
    EXPECT_EQ(from, 0u);
    received.push_back(f);
  });

  EXPECT_TRUE(tx.send({1, 2, 3}));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], (util::Bytes{1, 2, 3}));
  EXPECT_EQ(tx.counters().frames_sent, 1u);
  EXPECT_EQ(rx.counters().frames_received, 1u);
}

TEST_F(RadioTest, OversizedFrameRejected) {
  Radio tx = make_radio(0);
  const util::Bytes big(kRpcMaxFrameBytes + 1, 0xee);
  EXPECT_FALSE(tx.send(big));
  EXPECT_FALSE(tx.send(util::BytesView(big)));
  EXPECT_EQ(tx.counters().frames_rejected, 2u);
  EXPECT_EQ(tx.queue_depth(), 0u);
  EXPECT_EQ(tx.counters().frames_sent, 0u);
  // Exactly at the limit is fine, through either overload.
  EXPECT_TRUE(tx.send(util::Bytes(kRpcMaxFrameBytes, 0xdd)));
  const util::Bytes at_limit(kRpcMaxFrameBytes, 0xcc);
  EXPECT_TRUE(tx.send(util::BytesView(at_limit)));
}

TEST_F(RadioTest, FramesAreSerializedWithInterframeGap) {
  RadioConfig config;
  config.bitrate_bps = 8000.0;  // 1 byte per ms
  config.interframe_gap = sim::Duration::milliseconds(2);
  Radio tx = make_radio(0, config);
  Radio rx = make_radio(1, config);
  std::vector<sim::TimePoint> times;
  rx.set_receive_callback(
      [&](sim::NodeId, const util::Bytes&) { times.push_back(sim.now()); });

  tx.send({0x01});  // 1 byte -> 1 ms airtime
  tx.send({0x02});
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0].ns(), sim::Duration::milliseconds(1).ns());
  // Second frame starts after airtime + gap of the first.
  EXPECT_EQ(times[1].ns(), sim::Duration::milliseconds(4).ns());
}

TEST_F(RadioTest, QueueDrainsInOrder) {
  Radio tx = make_radio(0);
  Radio rx = make_radio(1);
  std::vector<std::uint8_t> order;
  rx.set_receive_callback([&](sim::NodeId, const util::Bytes& f) {
    order.push_back(f[0]);
  });
  for (std::uint8_t i = 0; i < 10; ++i) tx.send({i});
  EXPECT_GT(tx.queue_depth(), 0u);
  EXPECT_FALSE(tx.idle());
  sim.run();
  EXPECT_TRUE(tx.idle());
  ASSERT_EQ(order.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// The queue is a ring of slots that keep their buffers. Frames of varying
// length go in through both send overloads while earlier ones drain, so
// the ring wraps around, grows while wrapped (its first growth is to 8
// slots, then it doubles), and refills slots that held longer frames.
// The peer must hear every frame intact, in send order.
TEST_F(RadioTest, QueueKeepsFifoOrderAcrossWrapAndGrowth) {
  Radio tx = make_radio(0);
  Radio rx = make_radio(1);
  std::vector<util::Bytes> received;
  rx.set_receive_callback(
      [&](sim::NodeId, const util::Bytes& f) { received.push_back(f); });
  std::vector<util::Bytes> sent;
  const auto send = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = sent.size();
      // Lengths cycle 27, 26, ..., 1 so a slot often gets a shorter frame
      // than it last held; the first byte numbers the frame.
      util::Bytes frame(kRpcMaxFrameBytes - i % kRpcMaxFrameBytes,
                        static_cast<std::uint8_t>(0xa0 + i % 16));
      frame[0] = static_cast<std::uint8_t>(i);
      sent.push_back(frame);
      if (i % 2 == 0) {
        EXPECT_TRUE(tx.send(util::BytesView(frame)));
      } else {
        EXPECT_TRUE(tx.send(std::move(frame)));
      }
    }
  };
  const auto drain_until = [&](std::size_t heard) {
    while (received.size() < heard && sim.step()) {
    }
  };
  send(6);
  drain_until(4);   // head of the 8-slot ring at 4, frames 4 and 5 queued
  send(6);          // fills the ring, wrapping into slots 0-3
  EXPECT_EQ(tx.queue_depth(), 8u);
  send(3);          // grows while wrapped
  drain_until(10);
  send(20);         // grows again
  drain_until(30);
  send(7);
  sim.run();
  EXPECT_TRUE(tx.idle());
  EXPECT_EQ(received, sent);
  EXPECT_EQ(tx.counters().frames_sent, sent.size());
}

TEST_F(RadioTest, AirtimeScalesWithSizeAndOverhead) {
  RadioConfig config;
  config.bitrate_bps = 1000.0;
  Radio plain = make_radio(0, config);
  EXPECT_EQ(plain.airtime(10).ns(), sim::Duration::milliseconds(80).ns());

  Radio overhead(medium, 1, config, EnergyModel{.per_frame_overhead_bits = 20},
                 5);
  EXPECT_EQ(overhead.airtime(10).ns(), sim::Duration::milliseconds(100).ns());
}

TEST_F(RadioTest, EnergyAccountsTxAndRx) {
  EnergyModel model{.tx_nj_per_bit = 10.0, .rx_nj_per_bit = 5.0,
                    .idle_nw = 0.0, .per_frame_overhead_bits = 0};
  Radio tx(medium, 0, RadioConfig{}, model, 1);
  Radio rx(medium, 1, RadioConfig{}, model, 2);
  tx.send({1, 2});  // 16 bits
  sim.run();
  EXPECT_DOUBLE_EQ(tx.energy().tx_nj(), 160.0);
  EXPECT_DOUBLE_EQ(rx.energy().rx_nj(), 80.0);
  EXPECT_EQ(tx.counters().payload_bits_sent, 16u);
  EXPECT_EQ(rx.counters().payload_bits_received, 16u);
}

TEST_F(RadioTest, BackoffDelaysButDelivers) {
  RadioConfig config;
  config.max_backoff = sim::Duration::milliseconds(10);
  Radio tx = make_radio(0, config);
  Radio rx = make_radio(1);
  int received = 0;
  rx.set_receive_callback([&](sim::NodeId, const util::Bytes&) { ++received; });
  for (int i = 0; i < 5; ++i) tx.send({static_cast<std::uint8_t>(i)});
  sim.run();
  EXPECT_EQ(received, 5);
}

TEST_F(RadioTest, BroadcastReachesAllRadiosInRange) {
  Radio tx = make_radio(0);
  Radio rx1 = make_radio(1);
  Radio rx2 = make_radio(2);
  int count1 = 0;
  int count2 = 0;
  rx1.set_receive_callback([&](sim::NodeId, const util::Bytes&) { ++count1; });
  rx2.set_receive_callback([&](sim::NodeId, const util::Bytes&) { ++count2; });
  tx.send({0x55});
  sim.run();
  EXPECT_EQ(count1, 1);
  EXPECT_EQ(count2, 1);
}

}  // namespace
}  // namespace retri::radio
