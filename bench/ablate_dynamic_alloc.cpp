// Ablation C (§2.3): dynamic local address allocation under churn.
//
// The paper's argument against assigned-local-address protocols: "as the
// network topology becomes more dynamic, more work is required to keep
// addresses locally unique", and with a low data rate there is nothing to
// amortize that work against. We run the claim/defend allocator over a
// population with increasing membership churn and charge its control bits
// against a fixed, low data budget, then compare the resulting efficiency
// with AFF (which pays zero control traffic on membership change) and with
// manual/static assignment (zero protocol cost, but inadmissible in
// unattended deployments).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "core/model.hpp"
#include "harness.hpp"
#include "net/central_alloc.hpp"
#include "net/dynamic_alloc.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"
#include "stats/table.hpp"

using retri::net::DynAllocConfig;
using retri::net::DynAllocNode;
using retri::stats::Table;
using retri::stats::fmt;
using retri::stats::fmt_pct;

namespace {

struct ChurnOutcome {
  std::uint64_t control_bits = 0;
  std::uint64_t joins = 0;
  std::uint64_t acquired = 0;
};

/// `nodes` stations hold addresses; every `rejoin_period` one of them
/// (round-robin) leaves and rejoins, paying the claim/defend protocol again.
ChurnOutcome run_churn(std::size_t nodes, retri::sim::Duration rejoin_period,
                       retri::sim::Duration total, std::uint64_t seed) {
  retri::sim::Simulator sim;
  retri::sim::BroadcastMedium medium(
      sim, retri::sim::Topology::full_mesh(nodes), {}, seed);

  DynAllocConfig config;
  config.addr_bits = 10;
  config.claim_wait = retri::sim::Duration::milliseconds(200);

  struct Station {
    std::unique_ptr<retri::radio::Radio> radio;
    std::unique_ptr<DynAllocNode> node;
  };
  std::vector<Station> stations(nodes);
  ChurnOutcome out;
  for (std::size_t i = 0; i < nodes; ++i) {
    stations[i].radio = std::make_unique<retri::radio::Radio>(
        medium, static_cast<retri::sim::NodeId>(i), retri::radio::RadioConfig{},
        retri::radio::EnergyModel::rpc_like(), seed + i);
    stations[i].node = std::make_unique<DynAllocNode>(*stations[i].radio,
                                                      config, seed * 7 + i);
    stations[i].node->set_on_acquired([&out](retri::net::Address) {
      ++out.acquired;
    });
    stations[i].node->start();
    ++out.joins;
  }

  // Churn driver: the next station in round-robin order releases and
  // restarts every rejoin_period.
  std::size_t victim = 0;
  std::function<void()> churn = [&]() {
    if (sim.now() >= retri::sim::TimePoint::origin() + total) return;
    stations[victim].node->release();
    stations[victim].node->start();
    ++out.joins;
    victim = (victim + 1) % nodes;
    sim.schedule_after(rejoin_period, churn);
  };
  if (rejoin_period > retri::sim::Duration::nanoseconds(0)) {
    sim.schedule_after(rejoin_period, churn);
  }

  sim.run_until(retri::sim::TimePoint::origin() + total +
                retri::sim::Duration::seconds(2));
  for (const auto& s : stations) {
    out.control_bits += s.node->stats().control_bits_sent;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_flag = retri::bench::require_only(
          args, {"--seed", "--seconds", "--csv"}, stderr)) {
    return bad_flag;
  }

  constexpr std::size_t kNodes = 10;
  const auto total = retri::sim::Duration::from_seconds(args.seconds * 4);
  // The paper's low-data-rate regime: each node sends one 16-bit reading
  // every 10 seconds with a 10-bit local address header.
  constexpr double kDataBitsPerReading = 16.0;
  constexpr unsigned kAddrBits = 10;
  const double readings =
      static_cast<double>(kNodes) * total.to_seconds() / 10.0;
  const double data_bits = readings * kDataBitsPerReading;
  const double header_bits = readings * kAddrBits;

  std::printf(
      "Ablation: dynamic local address allocation vs. churn\n"
      "(%zu nodes, 10-bit local addresses, one 16-bit reading per node per "
      "10 s,\n %.0f s simulated; efficiency = data / (data + headers + "
      "allocation control traffic))\n\n",
      kNodes, total.to_seconds());

  Table table({"mean time between churn events", "joins", "control bits",
               "alloc efficiency", "AFF efficiency (same header)"});

  // AFF at the same header width pays no allocation traffic; its only tax
  // is collisions at density ~ kNodes.
  const double aff_eff = retri::core::model::e_aff(
      kDataBitsPerReading, kAddrBits, static_cast<double>(kNodes));

  std::vector<double> efficiencies;
  const struct {
    const char* label;
    std::int64_t period_ms;  // 0 = static membership
  } regimes[] = {
      {"never (static membership)", 0},
      {"60 s", 60'000},
      {"10 s", 10'000},
      {"2 s", 2'000},
      {"0.5 s", 500},
  };

  for (const auto& regime : regimes) {
    const ChurnOutcome out = run_churn(
        kNodes, retri::sim::Duration::milliseconds(regime.period_ms),
        total, args.seed);
    const double efficiency =
        data_bits /
        (data_bits + header_bits + static_cast<double>(out.control_bits));
    efficiencies.push_back(efficiency);
    table.row({regime.label, std::to_string(out.joins),
               std::to_string(out.control_bits), fmt_pct(efficiency),
               fmt_pct(aff_eff)});
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  // -- Part 2: the centralized (DHCP/WINS-style) authority --------------------
  // §2.2's other alternative. Optimal dense assignment and one round trip
  // per join — until the authority dies, at which point nobody joins at
  // all. We measure both halves.
  std::puts("\ncentralized authority comparison (10 joining nodes):");
  {
    retri::sim::Simulator sim;
    retri::sim::BroadcastMedium medium(
        sim, retri::sim::Topology::full_mesh(11), {}, args.seed);
    retri::radio::Radio server_radio(medium, 0, retri::radio::RadioConfig{},
                                     retri::radio::EnergyModel::rpc_like(),
                                     args.seed + 1);
    retri::net::CentralAllocServer server(server_radio, 10);

    struct Joiner {
      std::unique_ptr<retri::radio::Radio> radio;
      std::unique_ptr<retri::net::CentralAllocClient> client;
    };
    std::vector<Joiner> joiners(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      joiners[i].radio = std::make_unique<retri::radio::Radio>(
          medium, static_cast<retri::sim::NodeId>(i + 1),
          retri::radio::RadioConfig{}, retri::radio::EnergyModel::rpc_like(),
          args.seed + 10 + i);
      retri::net::CentralClientConfig cc;
      cc.addr_bits = 10;
      joiners[i].client = std::make_unique<retri::net::CentralAllocClient>(
          *joiners[i].radio, cc, args.seed + 100 + i);
      joiners[i].client->start();
    }
    sim.run_until(retri::sim::TimePoint::origin() +
                  retri::sim::Duration::seconds(10));

    std::uint64_t central_bits = server.stats().control_bits_sent;
    std::size_t acquired = 0;
    double worst_delay = 0.0;
    for (const auto& j : joiners) {
      central_bits += j.client->stats().control_bits_sent;
      if (j.client->has_address()) {
        ++acquired;
        worst_delay = std::max(worst_delay,
                               j.client->acquisition_delay().to_seconds());
      }
    }
    std::printf("  live authority:  %zu/%zu joined, %llu control bits, "
                "worst join delay %.0f ms\n",
                acquired, kNodes,
                static_cast<unsigned long long>(central_bits),
                worst_delay * 1e3);

    // Kill the authority and let a newcomer try.
    medium.set_enabled(0, false);
    retri::radio::Radio late_radio(medium, 10, retri::radio::RadioConfig{},
                                   retri::radio::EnergyModel::rpc_like(),
                                   args.seed + 999);
    retri::net::CentralClientConfig cc;
    cc.addr_bits = 10;
    retri::net::CentralAllocClient late(late_radio, cc, args.seed + 1000);
    bool late_failed = false;
    late.set_on_failed([&] { late_failed = true; });
    late.start();
    sim.run_until(sim.now() + retri::sim::Duration::seconds(10));
    std::printf("  dead authority:  newcomer %s after %llu requests "
                "(single point of failure, §2.3)\n",
                late_failed ? "FAILED to join" : "joined?!",
                static_cast<unsigned long long>(late.stats().requests_sent));
  }

  // Shape checks: allocation efficiency decays monotonically with churn,
  // and under heavy churn AFF wins.
  bool monotone = true;
  for (std::size_t i = 1; i < efficiencies.size(); ++i) {
    if (efficiencies[i] > efficiencies[i - 1] + 1e-9) monotone = false;
  }
  const bool aff_wins_under_churn = aff_eff > efficiencies.back();
  std::printf("\nshape check: allocation efficiency decays with churn: %s\n",
              monotone ? "yes (matches paper)" : "NO (mismatch!)");
  std::printf("shape check: AFF beats dynamic allocation under heavy churn: %s\n",
              aff_wins_under_churn ? "yes (matches paper)" : "NO (mismatch!)");
  return (monotone && aff_wins_under_churn) ? 0 : 1;
}
