// Quickstart: send one packet address-free.
//
// Builds the smallest possible RETRI stack — a simulated broadcast medium,
// two RPC-class radios, an identifier selector, and the AFF driver — sends
// an 80-byte packet, and shows what went over the air. Then asks the
// analytic model how to provision the identifier width for a target
// network.
//
//   $ ./quickstart
#include <cstdio>

#include "aff/driver.hpp"
#include "core/model.hpp"
#include "core/selector.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"

using namespace retri;

int main() {
  // 1. A world: simulator + topology (two nodes in range) + shared medium.
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(2),
                              sim::MediumConfig{}, /*seed=*/1);

  // 2. Radios: 27-byte frames at 40 kbit/s, Radiometrix-class energy.
  radio::Radio tx_radio(medium, 0, radio::RadioConfig{},
                        radio::EnergyModel::rpc_like(), /*seed=*/2);
  radio::Radio rx_radio(medium, 1, radio::RadioConfig{},
                        radio::EnergyModel::rpc_like(), /*seed=*/3);

  // 3. Identifier policy: 8-bit random ephemeral ids, listening heuristic.
  core::ListeningSelector tx_selector(core::IdSpace(8), /*seed=*/4);
  core::ListeningSelector rx_selector(core::IdSpace(8), /*seed=*/5);

  // 4. AFF drivers: fragmentation + reassembly, no addresses anywhere.
  aff::AffDriverConfig config;
  config.wire.id_bits = 8;
  aff::AffDriver sender(tx_radio, tx_selector, config, /*node_uid=*/100);
  aff::AffDriver receiver(rx_radio, rx_selector, config, /*node_uid=*/101);

  receiver.set_packet_handler([&](util::BytesView packet) {
    std::printf("received %zu bytes at t = %.1f ms  (first bytes: %s ...)\n",
                packet.size(), sim.now().to_seconds() * 1e3,
                util::to_hex({packet.data(), 4}).c_str());
  });

  // 5. Send one 80-byte packet. It fragments into 1 intro + 4 data frames,
  //    each carrying only the ephemeral 8-bit id — no source address.
  const util::Bytes packet = util::random_payload(80, /*seed=*/6);
  const auto id = sender.send_packet(packet);
  if (id.ok()) {
    std::printf("sent 80 bytes under ephemeral id %llu (%zu fragments)\n",
                static_cast<unsigned long long>(id.value().value()),
                sender.stats().fragments_sent);
  }

  sim.run();

  std::printf("\nair accounting: %llu frames, %llu payload bits, %.1f uJ tx\n",
              static_cast<unsigned long long>(tx_radio.counters().frames_sent),
              static_cast<unsigned long long>(
                  tx_radio.counters().payload_bits_sent),
              tx_radio.energy().tx_nj() / 1000.0);

  // 6. Provisioning with the analytic model (the paper's Figures 1-3).
  std::puts("\nmodel: how many id bits do I need?");
  for (const double density : {5.0, 16.0, 256.0}) {
    const unsigned optimal = core::model::optimal_id_bits(16.0, density);
    std::printf(
        "  T = %3.0f concurrent transactions -> optimal H = %2u bits "
        "(E = %.3f, collision rate %.4f)\n",
        density, optimal, core::model::e_aff(16.0, optimal, density),
        1.0 - core::model::p_success(optimal, density));
  }
  return 0;
}
