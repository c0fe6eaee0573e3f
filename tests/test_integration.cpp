// End-to-end integration tests: the paper's §5.1 experiment in miniature,
// plus cross-module behaviours no unit test covers.
#include <gtest/gtest.h>

#include <string_view>

#include "aff/driver.hpp"
#include "core/model.hpp"
#include "core/selector.hpp"
#include "radio/radio.hpp"
#include "runner/experiment.hpp"
#include "sim/medium.hpp"

namespace retri {
namespace {

/// One §5.1-style run through runner::run_experiment: `senders` nodes
/// stream 80-byte packets at a single receiver for `duration` of simulated
/// time, then drain for 15 s; the result carries AFF-delivered and
/// ground-truth delivered counts at the receiver.
runner::ExperimentResult run_validation(
    unsigned id_bits, std::string_view policy, std::size_t senders,
    sim::Duration duration, std::uint64_t seed,
    runner::TopologyKind topology = runner::TopologyKind::kStarFullMesh) {
  runner::ExperimentConfig config;
  config.senders = senders;
  config.topology = topology;
  config.id_bits = id_bits;
  config.selector = core::parse_selector_spec(policy).value();
  config.send_duration = duration;
  config.seed = seed;
  return runner::run_experiment(config);
}

TEST(Integration, FiveSendersWideIdsDeliverEverything) {
  // With 16-bit identifiers and T = 5, collisions are negligible: the AFF
  // path delivers essentially everything the ground truth does.
  const auto out = run_validation(16, "uniform", 5,
                                  sim::Duration::seconds(20), 1);
  EXPECT_GT(out.truth_delivered, 100u);
  EXPECT_GT(out.delivery_ratio(), 0.99);
}

TEST(Integration, TinyIdSpaceLosesManyPackets) {
  const auto out = run_validation(2, "uniform", 5,
                                  sim::Duration::seconds(20), 2);
  EXPECT_GT(out.truth_delivered, 100u);
  EXPECT_LT(out.delivery_ratio(), 0.80);
}

TEST(Integration, DeliveryRatioTracksModelAtModerateWidths) {
  // The §5.1 validation claim: observed collision loss matches Eq. 4.
  // T = 5 saturating senders; compare against the model with a generous
  // tolerance (the simulated transaction overlap is not exactly the
  // model's worst case, so observed >= model is the expected direction).
  for (const unsigned bits : {4u, 6u, 8u}) {
    const auto out = run_validation(bits, "uniform", 5,
                                    sim::Duration::seconds(30),
                                    100 + bits);
    const double predicted = core::model::p_success(bits, 5.0);
    EXPECT_GT(out.delivery_ratio(), predicted - 0.12)
        << "bits=" << bits << " predicted=" << predicted;
    EXPECT_LT(out.delivery_ratio(), 1.0001) << "bits=" << bits;
  }
}

TEST(Integration, ListeningBeatsUniformInTheContendedRegime) {
  // Figure 4's second observation: the listening heuristic markedly
  // reduces identifier collisions at small id widths.
  const auto uniform = run_validation(3, "uniform", 5,
                                      sim::Duration::seconds(30), 7);
  const auto listening = run_validation(3, "listening", 5,
                                        sim::Duration::seconds(30), 7);
  EXPECT_GT(listening.delivery_ratio(), uniform.delivery_ratio());
}

TEST(Integration, DeterministicEndToEnd) {
  const auto a = run_validation(6, "uniform", 5, sim::Duration::seconds(10), 9);
  const auto b = run_validation(6, "uniform", 5, sim::Duration::seconds(10), 9);
  EXPECT_EQ(a.aff_delivered, b.aff_delivered);
  EXPECT_EQ(a.truth_delivered, b.truth_delivered);
}

TEST(Integration, LossyMediumDegradesBothPathsEqually) {
  // Random RF loss affects AFF and ground truth alike; identifier
  // collisions are the only differential loss source.
  sim::Simulator sim;
  sim::MediumConfig mconfig;
  mconfig.per_link_loss = 0.05;
  sim::BroadcastMedium medium(sim, sim::Topology::star_full_mesh(2), mconfig,
                              11);

  aff::AffDriverConfig config;
  config.wire.id_bits = 16;
  config.wire.instrumented = true;
  config.reassembly_timeout = sim::Duration::seconds(2);

  radio::Radio rx_radio(medium, 0, {}, radio::EnergyModel{}, 1);
  core::UniformSelector rx_sel(core::IdSpace(16), 2);
  aff::AffDriver rx(rx_radio, rx_sel, config, 0);

  radio::Radio tx_radio(medium, 1, {}, radio::EnergyModel{}, 3);
  core::UniformSelector tx_sel(core::IdSpace(16), 4);
  aff::AffDriver tx(tx_radio, tx_sel, config, 1);

  for (int i = 0; i < 100; ++i) {
    (void)tx.send_packet(util::random_payload(80, 500u + static_cast<unsigned>(i)));
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(120));

  // 5 frames/packet at 5% frame loss -> ~77% packet delivery; both paths
  // see the same loss because ids are wide enough to never collide.
  EXPECT_EQ(rx.stats().packets_delivered, rx.stats().truth_packets_delivered);
  EXPECT_GT(rx.stats().packets_delivered, 50u);
  EXPECT_LT(rx.stats().packets_delivered, 100u);
}

TEST(Integration, HiddenTerminalsDefeatListening) {
  // §3.2: two senders out of range of each other cannot hear each other's
  // identifiers, so listening degenerates toward uniform there, while in a
  // full mesh it helps. We verify listening's advantage is no better under
  // hidden terminals than in the full mesh.
  auto run_topo = [](runner::TopologyKind topology, std::uint64_t seed) {
    return run_validation(2, "listening", 2, sim::Duration::seconds(30), seed,
                          topology)
        .delivery_ratio();
  };

  double mesh_total = 0.0;
  double hidden_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    mesh_total += run_topo(runner::TopologyKind::kStarFullMesh, 1000 + seed);
    hidden_total +=
        run_topo(runner::TopologyKind::kHiddenTerminal, 2000 + seed);
  }
  EXPECT_GE(mesh_total, hidden_total);
}

}  // namespace
}  // namespace retri
