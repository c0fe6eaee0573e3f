// Vehicle tracking: bursty detections and large reports over tiny frames.
//
// A roadside deployment: five acoustic sensors detect passing vehicles
// (Poisson arrivals) and each detection produces a 200-byte report — a
// short time series of the acoustic signature — far bigger than the
// 27-byte radio frame. Reports are fragmented address-free and collected
// by one gateway. The example compares three configurations on the same
// detections:
//
//   1. AFF, uniform random 4-bit ids (deliberately under-provisioned),
//   2. AFF, listening selector, 8-bit ids (the paper's recommendation),
//   3. the IP-style addressed baseline (16-bit static addresses).
//
//   $ ./vehicle_tracking
#include <cstdio>
#include <memory>
#include <vector>

#include "aff/driver.hpp"
#include "apps/workload.hpp"
#include "core/model.hpp"
#include "core/selector.hpp"
#include "net/addressed_frag.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"

using namespace retri;

namespace {

constexpr std::size_t kSensors = 5;
constexpr std::size_t kReportBytes = 200;
const sim::Duration kMeanGap = sim::Duration::milliseconds(400);  // heavy traffic
const sim::Duration kRunTime = sim::Duration::seconds(120);

struct AffOutcome {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t truth = 0;
  double tx_energy_uj = 0.0;
};

AffOutcome run_aff(unsigned id_bits, const char* policy, std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::star_full_mesh(kSensors), {},
                              seed);

  aff::AffDriverConfig config;
  config.wire.id_bits = id_bits;
  config.wire.instrumented = true;  // to count ground truth

  radio::Radio gw_radio(medium, 0, radio::RadioConfig{},
                        radio::EnergyModel::rpc_like(), seed + 1);
  const core::SelectorSpec spec = core::parse_selector_spec(policy).value();
  auto gw_selector = core::make_selector(spec, core::IdSpace(id_bits), seed + 2);
  aff::AffDriver gateway(gw_radio, *gw_selector, config, 0);

  struct Sensor {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<aff::AffDriver> driver;
    std::unique_ptr<apps::TrafficSource> source;
  };
  std::vector<Sensor> sensors(kSensors);
  for (std::size_t i = 0; i < kSensors; ++i) {
    const auto node = static_cast<sim::NodeId>(i + 1);
    auto& s = sensors[i];
    s.radio = std::make_unique<radio::Radio>(medium, node, radio::RadioConfig{},
                                             radio::EnergyModel::rpc_like(),
                                             seed + 10 + node);
    s.selector = core::make_selector(spec, core::IdSpace(id_bits),
                                     seed + 20 + node);
    s.driver = std::make_unique<aff::AffDriver>(*s.radio, *s.selector, config,
                                                node);
    s.source = std::make_unique<apps::TrafficSource>(
        sim, *s.driver,
        std::make_unique<apps::PoissonWorkload>(kMeanGap, kReportBytes),
        seed + 30 + node);
    s.source->start(sim::TimePoint::origin() + kRunTime);
  }

  sim.run_until(sim::TimePoint::origin() + kRunTime + sim::Duration::seconds(20));

  AffOutcome out;
  for (const auto& s : sensors) {
    out.offered += s.source->packets_sent();
    out.tx_energy_uj += s.radio->energy().tx_nj() / 1000.0;
  }
  out.delivered = gateway.stats().packets_delivered;
  out.truth = gateway.stats().truth_packets_delivered;
  return out;
}

AffOutcome run_addressed(std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::star_full_mesh(kSensors), {},
                              seed);

  net::AddressedConfig config;  // 16-bit addresses
  radio::Radio gw_radio(medium, 0, radio::RadioConfig{},
                        radio::EnergyModel::rpc_like(), seed + 1);
  net::AddressedDriver gateway(gw_radio, net::Address(0xffff), config);

  struct Sensor {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<net::AddressedDriver> driver;
  };
  std::vector<Sensor> sensors(kSensors);
  std::vector<util::Xoshiro256> rngs;
  for (std::size_t i = 0; i < kSensors; ++i) {
    const auto node = static_cast<sim::NodeId>(i + 1);
    sensors[i].radio = std::make_unique<radio::Radio>(
        medium, node, radio::RadioConfig{}, radio::EnergyModel::rpc_like(),
        seed + 10 + node);
    sensors[i].driver = std::make_unique<net::AddressedDriver>(
        *sensors[i].radio, net::Address(node), config);
    rngs.emplace_back(seed + 30 + node);
  }

  // Mirror the Poisson workload by hand (TrafficSource drives AffDriver
  // only; the addressed baseline has the same arrival process).
  AffOutcome out;
  std::function<void(std::size_t)> arm = [&](std::size_t i) {
    const auto gap = sim::Duration::from_seconds(
        rngs[i].exponential(kMeanGap.to_seconds()));
    sim.schedule_after(gap, [&, i]() {
      if (sim.now() >= sim::TimePoint::origin() + kRunTime) return;
      if (sensors[i].radio->queue_depth() < 64) {
        (void)sensors[i].driver->send_packet(
            util::random_payload(kReportBytes, rngs[i].next()));
        ++out.offered;
      }
      arm(i);
    });
  };
  for (std::size_t i = 0; i < kSensors; ++i) arm(i);

  sim.run_until(sim::TimePoint::origin() + kRunTime + sim::Duration::seconds(20));
  for (const auto& s : sensors) {
    out.tx_energy_uj += s.radio->energy().tx_nj() / 1000.0;
  }
  out.delivered = gateway.stats().packets_delivered;
  out.truth = out.delivered;  // addressed ids cannot collide
  return out;
}

}  // namespace

int main() {
  std::printf("vehicle tracking: %zu sensors, 200-byte reports, Poisson "
              "arrivals (mean %.1f s), %.0f s\n\n",
              kSensors, kMeanGap.to_seconds(), kRunTime.to_seconds());

  const AffOutcome under = run_aff(4, "uniform", 1);
  const AffOutcome tuned = run_aff(8, "listening", 1);
  const AffOutcome addressed = run_addressed(1);

  auto report = [](const char* name, const AffOutcome& o) {
    const double ratio =
        o.truth ? static_cast<double>(o.delivered) / static_cast<double>(o.truth)
                : 0.0;
    std::printf("%-34s offered %4llu  delivered %4llu  (%.1f%% of "
                "deliverable)  tx energy %.0f uJ\n",
                name, static_cast<unsigned long long>(o.offered),
                static_cast<unsigned long long>(o.delivered), ratio * 100.0,
                o.tx_energy_uj);
  };
  report("AFF, 4-bit uniform (underprovisioned)", under);
  report("AFF, 8-bit listening (recommended)", tuned);
  report("addressed baseline, 16-bit static", addressed);

  std::printf("\nmodel guidance: smallest id width for <1%% collision loss at "
              "T=%zu: H = %u bits\n",
              kSensors,
              core::model::min_bits_for_loss(0.01, static_cast<double>(kSensors))
                  .value_or(0));
  std::puts("note: the instrumented uid adds 8 bytes/fragment here, so the");
  std::puts("energy column overstates AFF's absolute cost; relative ordering");
  std::puts("between the two AFF rows is unaffected.");
  return 0;
}
