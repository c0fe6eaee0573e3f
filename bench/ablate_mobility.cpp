// Ablation H (§1, §2.2): what motion does to "locally unique" addresses.
//
// Local address assignment is only meaningful relative to a connectivity
// snapshot: "devices that are mutually disconnected may share the same
// address at the same time" (§2.2). When nodes MOVE, yesterday's
// disconnected twins walk into each other's neighborhoods and local
// uniqueness silently breaks — the claim/defend protocol only defends at
// claim time, so nothing detects the merge. RETRI has no such state to
// invalidate: a fresh identifier per transaction is indifferent to motion.
//
// Part 1 measures address-ambiguity exposure (connected node pairs holding
// the same assigned address, sampled each second) as node speed grows.
// Part 2 runs instrumented AFF traffic over the same mobility and shows the
// identifier-collision loss rate stays flat across speeds.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "aff/driver.hpp"
#include "apps/workload.hpp"
#include "core/selector.hpp"
#include "harness.hpp"
#include "net/dynamic_alloc.hpp"
#include "radio/radio.hpp"
#include "sim/mobility.hpp"
#include "stats/table.hpp"

using namespace retri;

namespace {

constexpr std::size_t kNodes = 20;
constexpr unsigned kAddrBits = 6;  // 64 addresses for 20 nodes: roomy locally

sim::MobilityConfig mobility_config(double speed, sim::TimePoint stop_at) {
  sim::MobilityConfig config;
  config.field_side = 120.0;
  config.radio_range = 30.0;
  config.speed_min = std::max(0.1, speed * 0.8);
  config.speed_max = std::max(0.2, speed * 1.2);
  config.tick = sim::Duration::milliseconds(500);
  config.stop_at = stop_at;
  return config;
}

struct AmbiguityOutcome {
  std::uint64_t ambiguous_pair_seconds = 0;
  std::uint64_t samples = 0;
};

AmbiguityOutcome run_allocation(double speed, double seconds,
                                std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology(kNodes), {}, seed);
  const auto settle = sim::Duration::seconds(10);
  const auto horizon =
      sim::TimePoint::origin() + settle + sim::Duration::from_seconds(seconds);

  // Mobility owns the topology from t=0 (speed ~0 keeps the snapshot).
  sim::RandomWaypointMobility mobility(
      medium, mobility_config(speed, horizon), seed * 3 + 1);

  struct Station {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<net::DynAllocNode> node;
  };
  std::vector<Station> stations(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    stations[i].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(i), radio::RadioConfig{},
        radio::EnergyModel::rpc_like(), seed * 5 + i);
    net::DynAllocConfig config;
    config.addr_bits = kAddrBits;
    stations[i].node = std::make_unique<net::DynAllocNode>(
        *stations[i].radio, config, seed * 7 + i);
    // Stagger joins slightly so claims do not all overlap.
    sim.schedule_after(
        sim::Duration::milliseconds(100 * static_cast<std::int64_t>(i)),
                       [&stations, i]() { stations[i].node->start(); });
  }
  sim.run_until(sim::TimePoint::origin() + settle);

  AmbiguityOutcome out;
  while (sim.now() < horizon) {
    sim.run_until(sim.now() + sim::Duration::seconds(1));
    ++out.samples;
    for (std::size_t a = 0; a < kNodes; ++a) {
      if (!stations[a].node->has_address()) continue;
      for (std::size_t b = a + 1; b < kNodes; ++b) {
        if (!stations[b].node->has_address()) continue;
        if (stations[a].node->address() != stations[b].node->address()) {
          continue;
        }
        if (medium.topology().hears(static_cast<sim::NodeId>(a),
                                    static_cast<sim::NodeId>(b))) {
          ++out.ambiguous_pair_seconds;
        }
      }
    }
  }
  return out;
}

double run_aff_under_mobility(double speed, double seconds,
                              std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology(kNodes), {}, seed);
  const auto horizon =
      sim::TimePoint::origin() + sim::Duration::from_seconds(seconds);
  sim::RandomWaypointMobility mobility(
      medium, mobility_config(speed, horizon), seed * 3 + 1);

  aff::AffDriverConfig config;
  config.wire.id_bits = 5;  // contended enough that collisions register
  config.wire.instrumented = true;
  config.reassembly_timeout = sim::Duration::seconds(2);

  struct Stack {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<aff::AffDriver> driver;
    std::unique_ptr<apps::TrafficSource> source;
  };
  std::vector<Stack> stacks(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    stacks[i].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(i), radio::RadioConfig{},
        radio::EnergyModel::rpc_like(), seed * 11 + i);
    stacks[i].selector = core::make_selector(core::uniform_selector(),
                                             core::IdSpace(5), seed * 13 + i);
    stacks[i].driver = std::make_unique<aff::AffDriver>(
        *stacks[i].radio, *stacks[i].selector, config, i);
    stacks[i].source = std::make_unique<apps::TrafficSource>(
        sim, *stacks[i].driver,
        std::make_unique<apps::PoissonWorkload>(sim::Duration::seconds(2), 60),
        seed * 17 + i);
    stacks[i].source->start(horizon);
  }
  sim.run_until(horizon + sim::Duration::seconds(10));

  std::uint64_t aff = 0;
  std::uint64_t truth = 0;
  for (const auto& s : stacks) {
    aff += s.driver->stats().packets_delivered;
    truth += s.driver->stats().truth_packets_delivered;
  }
  return truth == 0 ? 0.0
                    : 1.0 - static_cast<double>(aff) / static_cast<double>(truth);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  if (const int bad_flag = bench::require_only(
          args, {"--seed", "--seconds", "--csv"}, stderr)) {
    return bad_flag;
  }
  const double horizon = args.seconds * 2;

  std::printf(
      "Ablation: mobility vs. assigned local addresses (%zu nodes, 120 m "
      "field, 30 m range,\n %u-bit local addresses; %.0f s per speed)\n\n",
      kNodes, kAddrBits, horizon);

  stats::Table table({"node speed", "ambiguous addr pair-seconds",
                      "AFF collision loss (H=5)"});

  std::vector<std::uint64_t> ambiguity;
  std::vector<double> aff_loss;
  for (const double speed : {0.0, 1.0, 4.0, 8.0}) {
    const AmbiguityOutcome alloc = run_allocation(speed, horizon, args.seed);
    const double loss = run_aff_under_mobility(speed, horizon, args.seed);
    ambiguity.push_back(alloc.ambiguous_pair_seconds);
    aff_loss.push_back(loss);
    table.row({stats::fmt(speed, 1) + " m/s",
               std::to_string(alloc.ambiguous_pair_seconds),
               stats::fmt(loss)});
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  // Shape checks: motion creates address ambiguity that static membership
  // does not have, while AFF's loss stays in one band across speeds.
  const bool motion_breaks_addresses = ambiguity.back() > ambiguity.front();
  double lo = 1.0;
  double hi = 0.0;
  for (const double l : aff_loss) {
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  const bool aff_flat = (hi - lo) < 0.10;
  std::printf("\nshape check: motion creates assigned-address ambiguity: %s\n",
              motion_breaks_addresses ? "yes (matches §2.2's warning)"
                                      : "NO (mismatch!)");
  std::printf("shape check: AFF collision loss flat across speeds:     %s "
              "(spread %.4f)\n",
              aff_flat ? "yes (matches paper)" : "NO (mismatch!)", hi - lo);
  return (motion_breaks_addresses && aff_flat) ? 0 : 1;
}
