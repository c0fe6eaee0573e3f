// Attribute-based name compression with RETRI codes (§6), layered on AFF.
//
// SCADDS-style attribute naming puts strings like
// ("type","seismic")("region","north-east") in packets. A codebook
// replaces the repeated attribute block with a short code — and the code
// is just a RETRI identifier: random, ephemeral, no allocation protocol.
//
// Two RETRI layers compose here. Codebook *definition* messages (~50
// bytes) exceed the radio's 27-byte frame, so every codebook message rides
// the address-free fragmentation service as a packet: AFF's ephemeral
// packet ids get it across the tiny frames, and the codebook's ephemeral
// codes compress the names inside. Neither layer transmits any address.
//
//   $ ./codebook_compression
#include <cstdio>
#include <memory>
#include <vector>

#include "aff/driver.hpp"
#include "apps/codebook.hpp"
#include "core/selector.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"

using namespace retri;

namespace {

constexpr unsigned kCodeBits = 8;   // codebook code width
constexpr unsigned kAffBits = 8;    // AFF packet-id width

struct Publisher {
  Publisher(sim::BroadcastMedium& medium, sim::NodeId node, std::uint64_t seed)
      : radio(std::make_unique<radio::Radio>(medium, node,
                                             radio::RadioConfig{},
                                             radio::EnergyModel::rpc_like(),
                                             seed)),
        code_selector(core::IdSpace(kCodeBits), seed + 1),
        aff_selector(core::IdSpace(kAffBits), seed + 2),
        encoder(code_selector, /*capacity=*/8) {
    aff::AffDriverConfig config;
    config.wire.id_bits = kAffBits;
    driver = std::make_unique<aff::AffDriver>(*radio, aff_selector, config,
                                              node);
  }

  /// Publishes one named reading; a fresh binding sends its definition
  /// first. Both go out as AFF packets.
  void publish(const apps::AttributeSet& name, std::uint16_t value) {
    const auto encoding = encoder.encode(name);
    if (encoding.fresh) {
      const auto definition =
          apps::encode_definition(kCodeBits, encoding.code, name);
      message_bits += definition.size() * 8;
      (void)driver->send_packet(definition);
    }
    util::BufferWriter payload(2);
    payload.u16(value);
    const auto message =
        apps::encode_compressed(kCodeBits, encoding.code, payload.bytes());
    message_bits += message.size() * 8;
    (void)driver->send_packet(message);
    plain_bits += apps::attribute_bits(name) + 16;  // the no-codebook cost
  }

  std::unique_ptr<radio::Radio> radio;
  core::UniformSelector code_selector;
  core::UniformSelector aff_selector;
  apps::CodebookEncoder encoder;
  std::unique_ptr<aff::AffDriver> driver;
  std::size_t message_bits = 0;  // codebook-layer bits
  std::size_t plain_bits = 0;    // what full attribute naming would cost
};

}  // namespace

int main() {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(3), {}, 7);

  // Subscriber: AFF driver delivering packets into a codebook decoder.
  radio::Radio sub_radio(medium, 0, radio::RadioConfig{},
                         radio::EnergyModel::rpc_like(), 1);
  core::UniformSelector sub_selector(core::IdSpace(kAffBits), 2);
  aff::AffDriverConfig sub_config;
  sub_config.wire.id_bits = kAffBits;
  aff::AffDriver subscriber(sub_radio, sub_selector, sub_config, 0);

  apps::CodebookDecoder decoder(/*capacity=*/32);
  std::uint64_t readings_resolved = 0;
  std::uint64_t readings_unresolvable = 0;
  subscriber.set_packet_handler([&](util::BytesView packet) {
    const auto msg = apps::decode_codebook_message(kCodeBits, packet);
    if (!msg) return;
    if (msg->kind == apps::CodebookMessage::Kind::kDefinition) {
      decoder.define(msg->code, msg->attrs);
      return;
    }
    if (decoder.resolve(msg->code)) ++readings_resolved;
    else ++readings_unresolvable;
  });

  Publisher seismic(medium, 1, 100);
  Publisher acoustic(medium, 2, 200);

  const apps::AttributeSet seismic_name = {
      {"type", "seismic"}, {"region", "north-east"}, {"unit", "mm/s"}};
  const apps::AttributeSet acoustic_name = {
      {"type", "acoustic"}, {"region", "north-east"}, {"unit", "dB"}};

  // Each publisher streams 50 readings under its (stable) name.
  for (std::uint16_t i = 0; i < 50; ++i) {
    sim.schedule_after(sim::Duration::milliseconds(100 * (i + 1)), [&, i]() {
      seismic.publish(seismic_name, static_cast<std::uint16_t>(1000 + i));
      acoustic.publish(acoustic_name, static_cast<std::uint16_t>(2000 + i));
    });
  }
  sim.run();

  std::puts("codebook compression over RETRI codes, 2 publishers x 50 readings");
  std::puts("(codebook messages ride AFF packets across 27-byte frames)\n");
  auto report = [](const char* name, const Publisher& p) {
    std::printf("%-10s codebook layer sent %5zu bits; plain attribute naming "
                "would cost %5zu bits (%.1fx compression)\n",
                name, p.message_bits, p.plain_bits,
                static_cast<double>(p.plain_bits) /
                    static_cast<double>(p.message_bits));
  };
  report("seismic", seismic);
  report("acoustic", acoustic);

  std::printf("\nsubscriber: %llu readings resolved, %llu unresolvable, "
              "%llu conflicting redefinitions\n",
              static_cast<unsigned long long>(readings_resolved),
              static_cast<unsigned long long>(readings_unresolvable),
              static_cast<unsigned long long>(
                  decoder.stats().conflicting_redefinitions));
  std::printf("AFF layer at the subscriber: %llu packets reassembled from "
              "%llu frames\n",
              static_cast<unsigned long long>(
                  subscriber.stats().packets_delivered),
              static_cast<unsigned long long>(
                  sub_radio.counters().frames_received));

  // Demonstrate the collision failure mode deliberately: another publisher
  // defines a DIFFERENT name under a code already bound to seismic data.
  std::puts("\nforcing a code collision:");
  const core::TransactionId live_code = seismic.encoder.encode(seismic_name).code;
  decoder.define(live_code, {{"type", "intruder"}, {"region", "west"}});
  std::printf("  conflicting redefinitions now: %llu (collision detected)\n",
              static_cast<unsigned long long>(
                  decoder.stats().conflicting_redefinitions));
  std::puts("  -> messages under that code may briefly resolve to the wrong");
  std::puts("     name; ephemerality (rebinding) clears it, per §6.");
  return 0;
}
