#include "apps/workload.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/random.hpp"

namespace retri::apps {
namespace {

TEST(PeriodicWorkload, FixedPeriodWithoutJitter) {
  PeriodicWorkload w(sim::Duration::seconds(2), 16);
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 10; ++i) {
    const SendPlan plan = w.next(rng);
    EXPECT_EQ(plan.gap.ns(), sim::Duration::seconds(2).ns());
    EXPECT_EQ(plan.size, 16u);
  }
}

TEST(PeriodicWorkload, JitterStaysWithinBounds) {
  PeriodicWorkload w(sim::Duration::seconds(2), 16, sim::Duration::seconds(1));
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 500; ++i) {
    const SendPlan plan = w.next(rng);
    EXPECT_GE(plan.gap.ns(), sim::Duration::seconds(1).ns());
    EXPECT_LE(plan.gap.ns(), sim::Duration::seconds(3).ns());
  }
}

TEST(PoissonWorkload, MeanInterarrivalIsRespected) {
  PoissonWorkload w(sim::Duration::seconds(3), 8);
  util::Xoshiro256 rng(3);
  double sum = 0.0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) sum += w.next(rng).gap.to_seconds();
  EXPECT_NEAR(sum / kSamples, 3.0, 0.1);
}

TEST(BurstyWorkload, BurstStructure) {
  BurstyWorkload w(3, sim::Duration::milliseconds(10),
                   sim::Duration::seconds(60), 32);
  util::Xoshiro256 rng(4);
  // First plan of each burst has the (long, random) inter-burst gap; the
  // following burst_len-1 have the intra gap.
  for (int burst = 0; burst < 5; ++burst) {
    const SendPlan first = w.next(rng);
    EXPECT_GT(first.gap.ns(), sim::Duration::milliseconds(10).ns());
    for (int i = 0; i < 2; ++i) {
      const SendPlan rest = w.next(rng);
      EXPECT_EQ(rest.gap.ns(), sim::Duration::milliseconds(10).ns());
    }
  }
}

TEST(SaturatingWorkload, ZeroGap) {
  SaturatingWorkload w(80);
  util::Xoshiro256 rng(5);
  const SendPlan plan = w.next(rng);
  EXPECT_EQ(plan.gap.ns(), 0);
  EXPECT_EQ(plan.size, 80u);
}

class TrafficSourceTest : public ::testing::Test {
 protected:
  TrafficSourceTest()
      : medium(sim, sim::Topology::full_mesh(2), {}, 5),
        radio(medium, 0, radio::RadioConfig{}, radio::EnergyModel{}, 6),
        rx_radio(medium, 1, radio::RadioConfig{}, radio::EnergyModel{}, 7),
        selector(core::IdSpace(8), 8),
        rx_selector(core::IdSpace(8), 9),
        driver(radio, selector, make_config(), 1),
        rx_driver(rx_radio, rx_selector, make_config(), 2) {
    rx_driver.set_packet_handler(
        [this](util::BytesView) { ++packets_received; });
  }

  static aff::AffDriverConfig make_config() {
    aff::AffDriverConfig config;
    config.wire.id_bits = 8;
    return config;
  }

  sim::Simulator sim;
  sim::BroadcastMedium medium;
  radio::Radio radio;
  radio::Radio rx_radio;
  core::UniformSelector selector;
  core::UniformSelector rx_selector;
  aff::AffDriver driver;
  aff::AffDriver rx_driver;
  int packets_received = 0;
};

TEST_F(TrafficSourceTest, PeriodicSourceSendsExpectedCount) {
  TrafficSource source(sim, driver,
                       std::make_unique<PeriodicWorkload>(
                           sim::Duration::seconds(1), 40),
                       11);
  source.start(sim::TimePoint::origin() + sim::Duration::seconds(10));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));
  // Sends at t = 1..9 (send at t >= 10 is suppressed by the deadline).
  EXPECT_EQ(source.packets_sent(), 9u);
  EXPECT_EQ(source.bytes_sent(), 9u * 40);
  EXPECT_EQ(packets_received, 9);
}

TEST_F(TrafficSourceTest, SaturatingSourcePacesToChannelRate) {
  TrafficSource source(sim, driver,
                       std::make_unique<SaturatingWorkload>(80), 12);
  source.start(sim::TimePoint::origin() + sim::Duration::seconds(10));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(15));

  // 80-byte packets -> 5 frames; RPC-class channel fits roughly
  // 10s / (5 * ~6ms) ~ 300 packets. The source must neither starve (far
  // fewer) nor flood an unbounded queue.
  EXPECT_GT(source.packets_sent(), 100u);
  EXPECT_LT(source.packets_sent(), 1000u);
  EXPECT_EQ(static_cast<int>(source.packets_sent()), packets_received);
}

TEST_F(TrafficSourceTest, StopHaltsGeneration) {
  TrafficSource source(sim, driver,
                       std::make_unique<PeriodicWorkload>(
                           sim::Duration::seconds(1), 20),
                       13);
  source.start(sim::TimePoint::origin() + sim::Duration::seconds(100));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(5));
  source.stop();
  const auto sent = source.packets_sent();
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));
  EXPECT_EQ(source.packets_sent(), sent);
}

// The source holds its one pending poll as an EventHandle and cancels it
// on destruction: a source destroyed mid-run sends nothing more (and the
// ASan build checks nothing touches it).
TEST_F(TrafficSourceTest, DestroyedSourceWithPendingPollFiresNothing) {
  {
    TrafficSource source(sim, driver,
                         std::make_unique<PeriodicWorkload>(
                             sim::Duration::seconds(1), 40),
                         14);
    source.start(sim::TimePoint::origin() + sim::Duration::seconds(10));
    sim.run_until(sim::TimePoint::origin() + sim::Duration::milliseconds(2500));
    EXPECT_EQ(source.packets_sent(), 2u);
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));
  EXPECT_EQ(driver.stats().packets_sent, 2u);
  EXPECT_EQ(packets_received, 2);
}

// The observer sees each packet as it was sent, though the source refills
// one payload buffer for every packet.
TEST_F(TrafficSourceTest, ObserverSeesEachPacketAsSent) {
  std::vector<util::Bytes> observed;
  std::vector<util::Bytes> delivered;
  rx_driver.set_packet_handler([&](util::BytesView packet) {
    delivered.emplace_back(packet.begin(), packet.end());
  });
  TrafficSource source(sim, driver,
                       std::make_unique<PoissonWorkload>(
                           sim::Duration::milliseconds(300), 50),
                       15);
  source.set_packet_observer([&](util::BytesView packet) {
    observed.emplace_back(packet.begin(), packet.end());
  });
  source.start(sim::TimePoint::origin() + sim::Duration::seconds(5));
  sim.run();
  ASSERT_EQ(observed.size(), source.packets_sent());
  EXPECT_GT(observed.size(), 5u);
  EXPECT_EQ(delivered, observed);
  EXPECT_NE(observed[0], observed[1]);
}

TEST_F(TrafficSourceTest, DeterministicAcrossRuns) {
  // Two identical stacks produce identical send counts — the determinism
  // contract every experiment relies on.
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator s;
    sim::BroadcastMedium m(s, sim::Topology::full_mesh(2), {}, 1);
    radio::Radio r(m, 0, radio::RadioConfig{}, radio::EnergyModel{}, 2);
    core::UniformSelector sel(core::IdSpace(8), 3);
    aff::AffDriver d(r, sel, make_config(), 1);
    TrafficSource src(s, d,
                      std::make_unique<PoissonWorkload>(
                          sim::Duration::milliseconds(500), 60),
                      seed);
    src.start(sim::TimePoint::origin() + sim::Duration::seconds(30));
    s.run_until(sim::TimePoint::origin() + sim::Duration::seconds(40));
    return src.packets_sent();
  };
  EXPECT_EQ(run_once(77), run_once(77));
}

}  // namespace
}  // namespace retri::apps
