// Conservation and accounting invariants across the stack.
//
// Whatever the channel configuration, the books must balance: every
// delivery attempt is delivered or lost to exactly one cause; every
// radio's energy equals its bit counters times the model; every packet the
// AFF driver reports sent corresponds to exactly the fragmenter's frame
// count. Parameterized over medium configurations so the invariants hold
// in every regime, not just the ideal one.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "aff/driver.hpp"
#include "apps/workload.hpp"
#include "core/selector.hpp"
#include "fault/injector.hpp"
#include "obs/span.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"

namespace retri {
namespace {

using MediumParams = std::tuple<double /*loss*/, bool /*rf*/, bool /*hdx*/>;

class ConservationTest : public ::testing::TestWithParam<MediumParams> {};

TEST_P(ConservationTest, EveryDeliveryAttemptHasExactlyOneOutcome) {
  const auto [loss, rf, hdx] = GetParam();
  sim::Simulator sim;
  sim::MediumConfig config;
  config.per_link_loss = loss;
  config.rf_collisions = rf;
  config.half_duplex = hdx;
  obs::SpanRecorder spans;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(4), config, 77,
                              obs::Hooks{nullptr, &spans});

  struct Stack {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::UniformSelector> selector;
    std::unique_ptr<aff::AffDriver> driver;
    std::unique_ptr<apps::TrafficSource> source;
  };
  std::vector<Stack> stacks(4);
  for (sim::NodeId i = 0; i < 4; ++i) {
    auto& s = stacks[i];
    s.radio = std::make_unique<radio::Radio>(medium, i, radio::RadioConfig{},
                                             radio::EnergyModel::rpc_like(),
                                             10 + i);
    s.selector = std::make_unique<core::UniformSelector>(core::IdSpace(8),
                                                         20 + i);
    aff::AffDriverConfig dconfig;
    dconfig.wire.id_bits = 8;
    s.driver = std::make_unique<aff::AffDriver>(*s.radio, *s.selector, dconfig,
                                                i);
    if (i != 0) {
      s.source = std::make_unique<apps::TrafficSource>(
          sim, *s.driver, std::make_unique<apps::SaturatingWorkload>(60),
          30 + i);
      s.source->start(sim::TimePoint::origin() + sim::Duration::seconds(5));
    }
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));

  const auto& stats = medium.stats();
  // (1) Outcome partition.
  EXPECT_EQ(stats.deliveries_attempted,
            stats.delivered + stats.lost_random + stats.lost_rf_collision +
                stats.lost_half_duplex + stats.lost_disabled);
  // (2) Full mesh of 4: every frame has exactly 3 delivery attempts.
  EXPECT_EQ(stats.deliveries_attempted, stats.frames_sent * 3);
  // (3) The medium's frame.* instants recorded the same totals.
  std::map<std::string, std::uint64_t> instants;
  for (const obs::Instant& event : spans.instants()) ++instants[event.name];
  EXPECT_EQ(instants["frame.transmit"], stats.frames_sent);
  EXPECT_EQ(instants["frame.deliver"], stats.delivered);
  EXPECT_EQ(instants["frame.lost_random"], stats.lost_random);
  EXPECT_EQ(instants["frame.lost_rf_collision"], stats.lost_rf_collision);
  EXPECT_EQ(instants["frame.lost_half_duplex"], stats.lost_half_duplex);
  // (4) Radio-level frame accounting: what the medium delivered to node 0
  // equals what node 0's radio counted (it never slept).
  std::uint64_t received_all_nodes = 0;
  for (const auto& s : stacks) {
    received_all_nodes += s.radio->counters().frames_received;
  }
  EXPECT_EQ(received_all_nodes, stats.delivered);
  // (5) Per-radio energy equals the model applied to its own counters.
  for (const auto& s : stacks) {
    const auto& model = s.radio->energy().model();
    const double expected_tx =
        model.tx_nj_per_bit *
        (static_cast<double>(s.radio->counters().payload_bits_sent) +
         static_cast<double>(s.radio->counters().frames_sent) *
             model.per_frame_overhead_bits);
    EXPECT_NEAR(s.radio->energy().tx_nj(), expected_tx, 1e-6);
  }
  // (6) Fragment accounting: every sender's fragments_sent equals the
  // fragmenter geometry for its packet count (60-byte packets -> 4 frames).
  for (std::size_t i = 1; i < stacks.size(); ++i) {
    EXPECT_EQ(stacks[i].driver->stats().fragments_sent,
              stacks[i].driver->stats().packets_sent * 4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MediumRegimes, ConservationTest,
    ::testing::Values(MediumParams{0.0, false, false},
                      MediumParams{0.10, false, false},
                      MediumParams{0.0, true, false},
                      MediumParams{0.0, false, true},
                      MediumParams{0.25, true, true}),
    [](const ::testing::TestParamInfo<MediumParams>& param_info) {
      // std::get (not structured bindings): commas inside a structured
      // binding would split the INSTANTIATE macro's arguments.
      std::string name =
          "loss" +
          std::to_string(static_cast<int>(std::get<0>(param_info.param) * 100));
      if (std::get<1>(param_info.param)) name += "_rf";
      if (std::get<2>(param_info.param)) name += "_hdx";
      return name;
    });

TEST(FaultConservation, MediumBooksBalanceWithInjectorAttached) {
  // The delivery-outcome partition must survive the fault layer: every
  // attempted delivery plus every injector-added duplicate lands in
  // exactly one bucket (including lost_fault), in a regime where burst
  // drops, duplication, delay, and native losses are all active at once.
  sim::Simulator sim;
  sim::MediumConfig medium_config;
  medium_config.per_link_loss = 0.1;
  medium_config.half_duplex = true;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(4), medium_config,
                              123);

  fault::FaultPlan plan;
  plan.burst.p_good_to_bad = 0.05;
  plan.burst.p_bad_to_good = 0.2;
  plan.duplicate_prob = 0.2;
  plan.max_duplicates = 2;
  plan.delay_prob = 0.3;
  plan.max_delay = sim::Duration::milliseconds(20);
  fault::FaultInjector injector(plan, 321);
  medium.set_interceptor(&injector);

  struct Stack {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::UniformSelector> selector;
    std::unique_ptr<aff::AffDriver> driver;
    std::unique_ptr<apps::TrafficSource> source;
  };
  std::vector<Stack> stacks(4);
  for (sim::NodeId i = 0; i < 4; ++i) {
    auto& s = stacks[i];
    s.radio = std::make_unique<radio::Radio>(medium, i, radio::RadioConfig{},
                                             radio::EnergyModel::rpc_like(),
                                             10 + i);
    s.selector = std::make_unique<core::UniformSelector>(core::IdSpace(8),
                                                         20 + i);
    aff::AffDriverConfig dconfig;
    dconfig.wire.id_bits = 8;
    s.driver = std::make_unique<aff::AffDriver>(*s.radio, *s.selector, dconfig,
                                                i);
    if (i != 0) {
      s.source = std::make_unique<apps::TrafficSource>(
          sim, *s.driver, std::make_unique<apps::SaturatingWorkload>(60),
          30 + i);
      s.source->start(sim::TimePoint::origin() + sim::Duration::seconds(5));
    }
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));

  const auto& stats = medium.stats();
  EXPECT_GT(stats.deliveries_attempted, 0u);
  EXPECT_GT(stats.lost_fault, 0u);
  EXPECT_GT(stats.fault_extra_deliveries, 0u);
  EXPECT_EQ(stats.deliveries_attempted + stats.fault_extra_deliveries,
            stats.delivered + stats.lost_random + stats.lost_rf_collision +
                stats.lost_half_duplex + stats.lost_disabled +
                stats.lost_fault);

  const auto& fstats = injector.stats();
  EXPECT_EQ(fstats.intercepted, fstats.dropped_burst + fstats.forwarded);
  EXPECT_GE(fstats.copies_emitted, fstats.forwarded);
  EXPECT_EQ(stats.lost_fault, fstats.dropped_burst);
  EXPECT_EQ(stats.fault_extra_deliveries,
            fstats.copies_emitted - fstats.forwarded);
}

TEST(ReassemblyConservation, FragmentsSeenPartitionAcrossOutcomes) {
  // On an ideal medium every fragment a receiver sees is accounted as part
  // of a delivered packet, a duplicate, an orphan, or pending-then-expired.
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(2), {}, 9);

  radio::Radio rx_radio(medium, 0, {}, radio::EnergyModel{}, 1);
  core::UniformSelector rx_sel(core::IdSpace(16), 2);
  aff::AffDriverConfig config;
  config.wire.id_bits = 16;
  aff::AffDriver rx(rx_radio, rx_sel, config, 0);

  radio::Radio tx_radio(medium, 1, {}, radio::EnergyModel{}, 3);
  core::UniformSelector tx_sel(core::IdSpace(16), 4);
  aff::AffDriver tx(tx_radio, tx_sel, config, 1);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tx.send_packet(util::random_payload(100, 600u + static_cast<unsigned>(i)))
            .ok());
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(60));

  const auto& stats = rx.aff_reassembler().stats();
  EXPECT_EQ(stats.fragments_seen, tx.stats().fragments_sent);
  EXPECT_EQ(stats.delivered, 50u);
  EXPECT_EQ(stats.checksum_failed, 0u);
  EXPECT_EQ(stats.orphan_fragments, 0u);
  EXPECT_EQ(rx.aff_reassembler().pending_count(), 0u);
}

}  // namespace
}  // namespace retri
