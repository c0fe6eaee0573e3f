#include "sim/medium.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "util/random.hpp"

namespace retri::sim {
namespace {

struct Rx {
  NodeId from;
  util::Bytes payload;
};

class MediumTest : public ::testing::Test {
 protected:
  Simulator sim;

  std::vector<Rx>& capture(BroadcastMedium& medium, NodeId node) {
    auto& log = logs_.emplace_back(std::make_unique<std::vector<Rx>>());
    medium.attach(node, [&log = *log](NodeId from, const util::Bytes& p) {
      log.push_back({from, p});
    });
    return *log;
  }

 private:
  std::vector<std::unique_ptr<std::vector<Rx>>> logs_;
};

TEST_F(MediumTest, BroadcastReachesAllListeners) {
  BroadcastMedium medium(sim, Topology::full_mesh(4), {}, 1);
  auto& rx1 = capture(medium, 1);
  auto& rx2 = capture(medium, 2);
  auto& rx3 = capture(medium, 3);
  auto& rx0 = capture(medium, 0);

  medium.transmit(0, {0xaa, 0xbb}, Duration::milliseconds(1));
  sim.run();

  ASSERT_EQ(rx1.size(), 1u);
  ASSERT_EQ(rx2.size(), 1u);
  ASSERT_EQ(rx3.size(), 1u);
  EXPECT_TRUE(rx0.empty());  // no self-reception
  EXPECT_EQ(rx1[0].from, 0u);
  EXPECT_EQ(rx1[0].payload, (util::Bytes{0xaa, 0xbb}));
  EXPECT_EQ(medium.stats().frames_sent, 1u);
  EXPECT_EQ(medium.stats().delivered, 3u);
}

TEST_F(MediumTest, TopologyLimitsAudience) {
  BroadcastMedium medium(sim, Topology::line(3), {}, 1);
  auto& rx0 = capture(medium, 0);
  auto& rx2 = capture(medium, 2);

  medium.transmit(1, {0x01}, Duration::milliseconds(1));
  sim.run();
  EXPECT_EQ(rx0.size(), 1u);
  EXPECT_EQ(rx2.size(), 1u);

  medium.transmit(0, {0x02}, Duration::milliseconds(1));
  sim.run();
  EXPECT_EQ(rx2.size(), 1u);  // 2 cannot hear 0 on a line
}

TEST_F(MediumTest, DeliveryHappensAfterAirtimePlusPropagation) {
  MediumConfig config;
  config.propagation_delay = Duration::microseconds(10);
  BroadcastMedium medium(sim, Topology::full_mesh(2), config, 1);
  TimePoint delivered_at;
  medium.attach(1, [&](NodeId, const util::Bytes&) { delivered_at = sim.now(); });

  medium.transmit(0, {0xff}, Duration::milliseconds(5));
  sim.run();
  EXPECT_EQ(delivered_at.ns(),
            (Duration::milliseconds(5) + Duration::microseconds(10)).ns());
}

TEST_F(MediumTest, PerLinkLossDropsApproximatelyTheConfiguredFraction) {
  MediumConfig config;
  config.per_link_loss = 0.25;
  BroadcastMedium medium(sim, Topology::full_mesh(2), config, 42);
  int received = 0;
  medium.attach(1, [&](NodeId, const util::Bytes&) { ++received; });

  constexpr int kFrames = 4000;
  for (int i = 0; i < kFrames; ++i) {
    medium.transmit(0, {0x01}, Duration::microseconds(1));
    sim.run();
  }
  EXPECT_NEAR(static_cast<double>(received) / kFrames, 0.75, 0.03);
  EXPECT_EQ(medium.stats().lost_random + medium.stats().delivered,
            static_cast<std::uint64_t>(kFrames));
}

TEST_F(MediumTest, RfCollisionDestroysOverlappingReceptions) {
  MediumConfig config;
  config.rf_collisions = true;
  BroadcastMedium medium(sim, Topology::full_mesh(3), config, 1);
  auto& rx2 = capture(medium, 2);

  // Nodes 0 and 1 transmit overlapping frames; listener 2 gets neither.
  medium.transmit(0, {0x01}, Duration::milliseconds(10));
  sim.run_until(TimePoint::origin() + Duration::milliseconds(5));
  medium.transmit(1, {0x02}, Duration::milliseconds(10));
  sim.run();

  EXPECT_TRUE(rx2.empty());
  EXPECT_EQ(medium.stats().lost_rf_collision, 2u);
}

TEST_F(MediumTest, NonOverlappingTransmissionsBothDeliver) {
  MediumConfig config;
  config.rf_collisions = true;
  BroadcastMedium medium(sim, Topology::full_mesh(3), config, 1);
  auto& rx2 = capture(medium, 2);

  medium.transmit(0, {0x01}, Duration::milliseconds(10));
  sim.run_until(TimePoint::origin() + Duration::milliseconds(10));
  medium.transmit(1, {0x02}, Duration::milliseconds(10));
  sim.run();

  EXPECT_EQ(rx2.size(), 2u);
  EXPECT_EQ(medium.stats().lost_rf_collision, 0u);
}

TEST_F(MediumTest, CollisionOnlyAffectsCommonListeners) {
  // Hidden terminal: senders 1 and 2 both reach receiver 0 but not each
  // other. Their overlapping frames collide at 0 only.
  MediumConfig config;
  config.rf_collisions = true;
  BroadcastMedium medium(sim, Topology::hidden_terminal(2), config, 1);
  auto& rx0 = capture(medium, 0);

  medium.transmit(1, {0x01}, Duration::milliseconds(10));
  medium.transmit(2, {0x02}, Duration::milliseconds(10));
  sim.run();
  EXPECT_TRUE(rx0.empty());
  EXPECT_EQ(medium.stats().lost_rf_collision, 2u);
}

TEST_F(MediumTest, HalfDuplexListenerMissesFrameWhileTransmitting) {
  MediumConfig config;
  config.half_duplex = true;
  BroadcastMedium medium(sim, Topology::full_mesh(2), config, 1);
  auto& rx1 = capture(medium, 1);
  auto& rx0 = capture(medium, 0);

  // Both transmit simultaneously: each misses the other's frame.
  medium.transmit(0, {0x01}, Duration::milliseconds(10));
  medium.transmit(1, {0x02}, Duration::milliseconds(10));
  sim.run();
  EXPECT_TRUE(rx0.empty());
  EXPECT_TRUE(rx1.empty());
  EXPECT_EQ(medium.stats().lost_half_duplex, 2u);
}

TEST_F(MediumTest, HalfDuplexDoesNotAffectIdleListener) {
  MediumConfig config;
  config.half_duplex = true;
  BroadcastMedium medium(sim, Topology::full_mesh(2), config, 1);
  auto& rx1 = capture(medium, 1);
  medium.transmit(0, {0x01}, Duration::milliseconds(10));
  sim.run();
  EXPECT_EQ(rx1.size(), 1u);
}

TEST_F(MediumTest, DisabledNodesNeitherSendNorReceive) {
  BroadcastMedium medium(sim, Topology::full_mesh(3), {}, 1);
  auto& rx1 = capture(medium, 1);
  auto& rx2 = capture(medium, 2);

  medium.set_enabled(1, false);
  EXPECT_FALSE(medium.enabled(1));

  medium.transmit(0, {0x01}, Duration::milliseconds(1));
  sim.run();
  EXPECT_TRUE(rx1.empty());
  EXPECT_EQ(rx2.size(), 1u);
  EXPECT_EQ(medium.stats().lost_disabled, 1u);

  medium.transmit(1, {0x02}, Duration::milliseconds(1));
  sim.run();
  EXPECT_EQ(rx2.size(), 1u);  // disabled sender transmitted nothing
  EXPECT_EQ(medium.stats().frames_sent, 1u);

  medium.set_enabled(1, true);
  medium.transmit(0, {0x03}, Duration::milliseconds(1));
  sim.run();
  EXPECT_EQ(rx1.size(), 1u);
}

/// Scripted DeliveryInterceptor for accounting tests: one fixed behavior,
/// no randomness.
class ScriptedInterceptor final : public DeliveryInterceptor {
 public:
  enum class Mode { kPass, kDrop, kTriplicate, kDelay };
  Mode mode = Mode::kPass;
  Duration delay = Duration::milliseconds(5);

  std::vector<Injected> intercept(NodeId, NodeId,
                                  const util::SharedBytes& payload) override {
    switch (mode) {
      case Mode::kDrop:
        return {};
      case Mode::kTriplicate: {
        std::vector<Injected> copies(3);
        for (auto& copy : copies) copy.payload = payload;
        return copies;
      }
      case Mode::kDelay: {
        Injected copy;
        copy.payload = payload;
        copy.extra_delay = delay;
        return {std::move(copy)};
      }
      case Mode::kPass:
        break;
    }
    Injected copy;
    copy.payload = payload;
    return {std::move(copy)};
  }
};

TEST_F(MediumTest, InterceptorDropCountsAsLostFault) {
  BroadcastMedium medium(sim, Topology::full_mesh(2), {}, 1);
  ScriptedInterceptor interceptor;
  interceptor.mode = ScriptedInterceptor::Mode::kDrop;
  medium.set_interceptor(&interceptor);
  auto& rx1 = capture(medium, 1);

  medium.transmit(0, {0x01}, Duration::milliseconds(1));
  sim.run();
  EXPECT_TRUE(rx1.empty());
  const MediumStatsSnapshot& stats = medium.stats();
  EXPECT_EQ(stats.deliveries_attempted, 1u);
  EXPECT_EQ(stats.lost_fault, 1u);
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.fault_extra_deliveries, 0u);
}

TEST_F(MediumTest, InterceptorDuplicationCountsExtraDeliveries) {
  BroadcastMedium medium(sim, Topology::full_mesh(2), {}, 1);
  ScriptedInterceptor interceptor;
  interceptor.mode = ScriptedInterceptor::Mode::kTriplicate;
  medium.set_interceptor(&interceptor);
  auto& rx1 = capture(medium, 1);

  medium.transmit(0, {0x01, 0x02}, Duration::milliseconds(1));
  sim.run();
  EXPECT_EQ(rx1.size(), 3u);
  const MediumStatsSnapshot& stats = medium.stats();
  EXPECT_EQ(stats.deliveries_attempted, 1u);
  EXPECT_EQ(stats.fault_extra_deliveries, 2u);
  EXPECT_EQ(stats.delivered, 3u);
  // Conservation with the fault buckets: attempted + extra == outcomes.
  EXPECT_EQ(stats.deliveries_attempted + stats.fault_extra_deliveries,
            stats.delivered + stats.lost_random + stats.lost_rf_collision +
                stats.lost_half_duplex + stats.lost_disabled +
                stats.lost_fault);
}

TEST_F(MediumTest, InterceptorDelayDefersDelivery) {
  BroadcastMedium medium(sim, Topology::full_mesh(2), {}, 1);
  ScriptedInterceptor interceptor;
  interceptor.mode = ScriptedInterceptor::Mode::kDelay;
  medium.set_interceptor(&interceptor);

  TimePoint arrival = TimePoint::origin();
  medium.attach(1, [&](NodeId, const util::Bytes&) { arrival = sim.now(); });

  medium.transmit(0, {0x01}, Duration::milliseconds(1));
  sim.run();
  // Native arrival would be at airtime (1ms); the injected extra delay
  // pushes it to 6ms.
  EXPECT_EQ(arrival, TimePoint::origin() + Duration::milliseconds(6));
  EXPECT_EQ(medium.stats().delivered, 1u);
}

TEST_F(MediumTest, DelayedCopyToNodeDisabledInFlightIsLostDisabled) {
  // A copy delayed past a node's crash must not be delivered to the dead
  // node: enabled() is re-checked at arrival and the loss is accounted.
  BroadcastMedium medium(sim, Topology::full_mesh(2), {}, 1);
  ScriptedInterceptor interceptor;
  interceptor.mode = ScriptedInterceptor::Mode::kDelay;
  medium.set_interceptor(&interceptor);
  auto& rx1 = capture(medium, 1);

  medium.transmit(0, {0x01}, Duration::milliseconds(1));
  sim.schedule_at(TimePoint::origin() + Duration::milliseconds(3),
                  [&medium]() { medium.set_enabled(1, false); });
  sim.run();
  EXPECT_TRUE(rx1.empty());
  const MediumStatsSnapshot& stats = medium.stats();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.lost_disabled, 1u);
  EXPECT_EQ(stats.deliveries_attempted + stats.fault_extra_deliveries,
            stats.delivered + stats.lost_random + stats.lost_rf_collision +
                stats.lost_half_duplex + stats.lost_disabled +
                stats.lost_fault);
}

// The span lane is the medium's one frame-event trace: a transmit instant
// on the sender's track, then one delivery or loss instant per listener on
// the listener's track, each carrying the frame size.
TEST_F(MediumTest, FrameInstantsRecordEveryOutcome) {
  MediumConfig config;
  config.per_link_loss = 0.5;
  obs::SpanRecorder spans;
  BroadcastMedium medium(sim, Topology::full_mesh(2), config, 99,
                         obs::Hooks{nullptr, &spans});
  medium.attach(1, [](NodeId, const util::Bytes&) {});

  constexpr std::uint64_t kFrames = 200;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    medium.transmit(0, {0x01, 0x02}, Duration::microseconds(10));
    sim.run();
  }

  std::map<std::string, std::uint64_t> instants;
  for (const obs::Instant& event : spans.instants()) {
    ++instants[event.name];
    EXPECT_EQ(event.category, "medium");
    EXPECT_EQ(event.track, event.name == "frame.transmit" ? 0u : 1u);
    ASSERT_EQ(event.attrs.size(), 1u);
    EXPECT_EQ(event.attrs[0].value, 2u);
  }
  EXPECT_EQ(instants.size(), 3u);
  EXPECT_EQ(instants["frame.transmit"], kFrames);
  EXPECT_EQ(instants["frame.deliver"] + instants["frame.lost_random"], kFrames);
  EXPECT_EQ(instants["frame.deliver"], medium.stats().delivered);
  EXPECT_EQ(instants["frame.lost_random"], medium.stats().lost_random);
}

/// Keeps the first payload it sees and forwards every payload after
/// `delay`, with its first byte flipped when `corrupt` is set.
class KeepingInterceptor final : public DeliveryInterceptor {
 public:
  util::SharedBytes kept;
  Duration delay = Duration::nanoseconds(0);
  bool corrupt = false;

  std::vector<Injected> intercept(NodeId, NodeId,
                                  const util::SharedBytes& payload) override {
    if (kept.empty()) kept = payload;
    Injected copy{payload, delay};
    if (corrupt) copy.payload.mutable_bytes()[0] ^= 0xff;
    return {std::move(copy)};
  }
};

// runner::Star destroys its medium before its simulator, so a delayed
// interceptor copy still queued then holds a pooled buffer whose pool is
// gone. The buffer stays readable and is freed by its last holder (the
// ASan build checks that it is freed exactly once).
TEST_F(MediumTest, PooledPayloadHeldPastItsMediumIsFreedByItsLastHolder) {
  const util::Bytes frame = util::random_payload(27, 3);
  KeepingInterceptor interceptor;
  interceptor.delay = Duration::milliseconds(5);
  {
    Simulator local;
    {
      BroadcastMedium medium(local, Topology::full_mesh(2), {}, 1);
      medium.set_interceptor(&interceptor);
      medium.transmit(0, util::BytesView(frame), Duration::milliseconds(1));
      local.run_until(TimePoint::origin() + Duration::milliseconds(2));
      ASSERT_EQ(local.queued(), 1u);  // the delayed copy
    }
    // The delayed copy and `kept` share the pooled buffer.
    EXPECT_EQ(interceptor.kept.use_count(), 2);
    EXPECT_EQ(interceptor.kept.bytes(), frame);
  }
  EXPECT_EQ(interceptor.kept.use_count(), 1);
  EXPECT_EQ(interceptor.kept.bytes(), frame);
}

// An interceptor writing to a pooled payload gets a clone, so the shared
// buffer other holders read is never written; and a copy held across
// 1,000 later transmits keeps its bytes, because the pool only refills
// buffers nobody holds.
TEST_F(MediumTest, PooledPayloadClonesOnWriteAndIsNotRecycledWhileHeld) {
  BroadcastMedium medium(sim, Topology::full_mesh(2), {}, 1);
  KeepingInterceptor interceptor;
  interceptor.corrupt = true;
  medium.set_interceptor(&interceptor);
  auto& rx1 = capture(medium, 1);

  const util::Bytes first = util::random_payload(27, 1);
  medium.transmit(0, util::BytesView(first), Duration::microseconds(100));
  sim.run();
  ASSERT_EQ(rx1.size(), 1u);
  util::Bytes corrupted = first;
  corrupted[0] ^= 0xff;
  EXPECT_EQ(rx1[0].payload, corrupted);
  EXPECT_EQ(interceptor.kept.bytes(), first);
  EXPECT_EQ(interceptor.kept.use_count(), 1);

  for (std::uint64_t i = 0; i < 1000; ++i) {
    const util::Bytes later = util::random_payload(27, 100 + i);
    medium.transmit(0, util::BytesView(later), Duration::microseconds(100));
    sim.run();
    ASSERT_EQ(interceptor.kept.bytes(), first) << "after transmit " << i;
  }
  EXPECT_EQ(rx1.size(), 1001u);
}

TEST_F(MediumTest, ReattachReplacesHandler) {
  BroadcastMedium medium(sim, Topology::full_mesh(2), {}, 1);
  int first = 0;
  int second = 0;
  medium.attach(1, [&](NodeId, const util::Bytes&) { ++first; });
  medium.attach(1, [&](NodeId, const util::Bytes&) { ++second; });
  medium.transmit(0, {0x01}, Duration::milliseconds(1));
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace retri::sim
