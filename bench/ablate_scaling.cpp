// Ablation G — the scaling thesis (§1, §3.2, §4.3).
//
// "RETRI changes the scaling properties of a distributed system such that
// identifier sizes are tied to a system's transaction density, not its
// overall size." We grow a grid network from 3x3 to 13x13 while keeping
// interactions *localized* (TTL-scoped diffusion regions around a handful
// of sinks, as SCADDS-style designs prescribe) and hold the RETRI id width
// FIXED at 6 bits. If the thesis holds:
//
//   - the maximum per-node transaction density stays flat as the network
//     grows (locality bounds what any node sees);
//   - data delivery through the fixed 6-bit space stays flat (collision
//     pressure tracks density, not node count);
//   - while the width a globally-unique static scheme needs, ceil(log2 N),
//     keeps growing with the node count.
//
// Distant regions reuse the same 64-identifier space simultaneously —
// spatial reuse is the mechanism, exactly as §3.2 argues.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "apps/diffusion.hpp"
#include "harness.hpp"
#include "stats/table.hpp"
#include "util/bitops.hpp"

using namespace retri;

namespace {

constexpr unsigned kIdBits = 6;

struct ScalingOutcome {
  std::size_t nodes = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  double max_density = 0.0;
  std::uint64_t data_collisions = 0;

  double delivery_rate() const {
    return published == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(published);
  }
};

ScalingOutcome run_grid(std::size_t side, std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::grid(side, side), {}, seed);

  apps::DiffusionConfig config;
  config.id_bits = kIdBits;
  config.interest_ttl = 2;  // fixed interaction scope, independent of side
  config.data_ttl = 3;
  config.interest_lifetime = sim::Duration::seconds(600);
  // Ephemeral suppression state sized to ~2T, NOT to the id space: a
  // window as large as the pool would classify every reused id as a
  // duplicate and strangle the region (the same sizing rule as the
  // listening selector's 2T window).
  config.data_seen_window = 16;

  struct Node {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<apps::DiffusionNode> diffusion;
  };
  const std::size_t n = side * side;
  std::vector<Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<sim::NodeId>(i);
    nodes[i].radio = std::make_unique<radio::Radio>(
        medium, id, radio::RadioConfig{}, radio::EnergyModel::rpc_like(),
        seed * 13 + i);
    nodes[i].selector = core::make_selector(
        core::uniform_selector(), core::IdSpace(kIdBits), seed * 17 + i);
    nodes[i].diffusion = std::make_unique<apps::DiffusionNode>(
        *nodes[i].radio, *nodes[i].selector, config,
        static_cast<std::uint32_t>(id));
  }

  auto grid_id = [side](std::size_t x, std::size_t y) { return y * side + x; };

  // Sinks: the four corners and the center — five localized regions that
  // grow farther apart as the grid grows, all sharing the 6-bit space.
  std::vector<std::size_t> sinks = {grid_id(0, 0), grid_id(side - 1, 0),
                                    grid_id(0, side - 1),
                                    grid_id(side - 1, side - 1),
                                    grid_id(side / 2, side / 2)};
  const apps::AttributeSet name = {{"t", "temp"}};
  ScalingOutcome out;
  out.nodes = n;

  // Each publisher publishes one value per round, so (src_uid, value)
  // names one reading; a reading several sinks hear counts once.
  std::set<std::pair<std::uint32_t, std::uint16_t>> delivered;
  for (const std::size_t s : sinks) {
    nodes[s].diffusion->subscribe(
        name, [&delivered](std::uint16_t value, std::uint32_t src_uid) {
          delivered.emplace(src_uid, value);
        });
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(5));

  // Publishers: each sink's orthogonal grid neighbors — a FIXED per-region
  // workload so that growing the grid grows only the idle expanse between
  // regions, which is exactly the locality the thesis relies on.
  std::vector<std::size_t> publishers;
  auto add_publisher = [&](std::size_t x, std::size_t y) {
    const std::size_t id = grid_id(x, y);
    if (std::find(sinks.begin(), sinks.end(), id) != sinks.end()) return;
    if (std::find(publishers.begin(), publishers.end(), id) !=
        publishers.end()) {
      return;
    }
    if (nodes[id].diffusion->has_gradient(name)) publishers.push_back(id);
  };
  for (const std::size_t s : sinks) {
    const std::size_t x = s % side;
    const std::size_t y = s / side;
    if (x > 0) add_publisher(x - 1, y);
    if (x + 1 < side) add_publisher(x + 1, y);
    if (y > 0) add_publisher(x, y - 1);
    if (y + 1 < side) add_publisher(x, y + 1);
  }

  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::size_t p : publishers) {
      sim.schedule_after(sim::Duration::milliseconds(50),  // slight stagger
                         [&nodes, p, round, &out]() {
                           if (nodes[p].diffusion->publish(
                                   {{"t", "temp"}},
                                   static_cast<std::uint16_t>(round))) {
                             ++out.published;
                           }
                         });
      sim.run_until(sim.now() + sim::Duration::milliseconds(50));
    }
    sim.run_until(sim.now() + sim::Duration::seconds(1));
  }
  sim.run_until(sim.now() + sim::Duration::seconds(10));

  out.delivered = delivered.size();
  for (const auto& node : nodes) {
    out.max_density = std::max(out.max_density,
                               node.diffusion->local_density());
    out.data_collisions += node.diffusion->stats().data_collision_suppressed;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  if (const int bad_flag = bench::require_only(
          args, {"--seed", "--csv"}, stderr)) {
    return bad_flag;
  }

  std::printf(
      "Ablation: scaling — fixed %u-bit RETRI ids, fixed interaction scope,\n"
      "growing network (5 TTL-scoped diffusion regions per grid)\n\n",
      kIdBits);

  stats::Table table({"grid", "nodes", "static bits needed", "RETRI bits",
                      "max node density", "delivery rate"});

  std::vector<double> densities;
  std::vector<double> rates;
  std::vector<unsigned> static_bits;
  for (const std::size_t side : {3u, 5u, 7u, 9u, 11u, 13u}) {
    const ScalingOutcome out = run_grid(side, args.seed + side);
    densities.push_back(out.max_density);
    rates.push_back(out.delivery_rate());
    static_bits.push_back(util::bits_for(out.nodes));
    table.row({std::to_string(side) + "x" + std::to_string(side),
               std::to_string(out.nodes),
               std::to_string(util::bits_for(out.nodes)),
               std::to_string(kIdBits), stats::fmt(out.max_density, 1),
               stats::fmt(out.delivery_rate())});
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  // Shape checks.
  const bool density_flat =
      *std::max_element(densities.begin(), densities.end()) <=
      2.0 * *std::min_element(densities.begin(), densities.end());
  const bool delivery_flat =
      *std::min_element(rates.begin(), rates.end()) >=
      *std::max_element(rates.begin(), rates.end()) - 0.15;
  const bool static_grows = static_bits.back() > static_bits.front();
  const bool delivery_high =
      *std::min_element(rates.begin(), rates.end()) > 0.7;

  std::printf("\nshape check: max per-node density flat as network grows: %s\n",
              density_flat ? "yes (matches paper)" : "NO (mismatch!)");
  std::printf("shape check: delivery through fixed 6-bit space stays flat/high: %s\n",
              (delivery_flat && delivery_high) ? "yes (matches paper)"
                                               : "NO (mismatch!)");
  if (static_grows) {
    std::printf("shape check: globally-unique static width keeps growing: "
                "yes (%u -> %u bits)\n",
                static_bits.front(), static_bits.back());
  } else {
    std::puts("shape check: globally-unique static width keeps growing: "
              "NO (mismatch!)");
  }
  return (density_flat && delivery_flat && delivery_high && static_grows) ? 0
                                                                          : 1;
}
