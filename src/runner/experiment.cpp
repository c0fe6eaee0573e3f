#include "runner/experiment.hpp"

#include "runner/star.hpp"
#include "util/validate.hpp"

namespace retri::runner {

std::string_view to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::kStarFullMesh: return "star_full_mesh";
    case TopologyKind::kHiddenTerminal: return "hidden_terminal";
  }
  return "?";
}

std::string_view to_string(core::DensityModelKind kind) noexcept {
  switch (kind) {
    case core::DensityModelKind::kEwma: return "ewma";
    case core::DensityModelKind::kInstantaneous: return "instantaneous";
    case core::DensityModelKind::kPeakWindow: return "peak_window";
  }
  return "?";
}

std::string_view to_string(Channel channel) noexcept {
  switch (channel) {
    case Channel::kIndependent: return "independent";
    case Channel::kBurst: return "burst";
    case Channel::kChaos: return "chaos";
  }
  return "?";
}

util::Result<Channel, std::string> parse_channel(std::string_view name) {
  constexpr Channel kChannels[] = {Channel::kIndependent, Channel::kBurst,
                                   Channel::kChaos};
  for (const Channel channel : kChannels) {
    if (name == to_string(channel)) return channel;
  }
  std::string error =
      "unknown channel \"" + std::string(name) + "\"; available channels:";
  for (const Channel channel : kChannels) {
    error += ' ';
    error += to_string(channel);
  }
  return error;
}

ExperimentConfig validated(ExperimentConfig config) {
  util::Validator v{"ExperimentConfig"};
  v.at_least("senders", config.senders, 1);
  v.in_range("id_bits", config.id_bits, 1, 64);
  v.at_least("packet_bytes", config.packet_bytes, 1);
  for (const std::size_t bytes : config.per_sender_packet_bytes) {
    v.at_least("per_sender_packet_bytes[]", bytes, 1);
  }
  v.positive_seconds("send_duration", config.send_duration.to_seconds());
  v.non_negative_seconds("drain_extra", config.drain_extra.to_seconds());
  v.non_negative_seconds("tx_jitter", config.tx_jitter.to_seconds());
  v.probability("sender_listen_duty", config.sender_listen_duty);
  v.positive_seconds("duty_period", config.duty_period.to_seconds());
  v.probability("loss_rate", config.loss_rate);
  core::validated(config.selector);
  fault::validated(config.attacker);
  return config;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                obs::SpanRecorder* spans) {
  validated(config);  // reject bad knobs before any component exists

  // One registry per trial: every component registers its metrics here in
  // construction order, which is what makes the final snapshot
  // deterministic and jobs-invariant.
  obs::MetricsRegistry registry;
  ExperimentResult out;
  Star star(star_spec(config), obs::Hooks{&registry, spans});

  aff::AffDriver& receiver = *star.receiver.driver;
  receiver.set_packet_handler([&out](util::BytesView packet) {
    ++out.aff_by_size[packet.size()];
  });
  receiver.set_truth_packet_handler([&out](util::BytesView packet) {
    ++out.truth_by_size[packet.size()];
  });

  const sim::TimePoint horizon =
      sim::TimePoint::origin() + config.send_duration + config.drain_extra;
  star.sim.run_until(horizon);
  // Close any spans still open at the horizon (e.g. a transaction whose
  // drain estimate lands past it) with outcome "unterminated", so the
  // recorded stream is complete and byte-stable.
  if (spans != nullptr) spans->finish(horizon);

  for (const Star::Node& s : star.senders) {
    out.packets_offered += s.source->packets_sent();
    out.tx_energy_nj += s.radio->energy().tx_nj();
    out.tx_bits += s.radio->counters().payload_bits_sent;
  }
  const auto& rx_stats = receiver.stats();
  out.aff_delivered = rx_stats.packets_delivered;
  out.truth_delivered = rx_stats.truth_packets_delivered;
  out.notifications_sent = rx_stats.notifications_sent;
  const auto& reasm = receiver.aff_reassembler().stats();
  out.checksum_failures = reasm.checksum_failed;
  out.conflicting_writes = reasm.conflicting_writes;
  out.receiver_density_estimate = receiver.density_estimate();
  out.frames_attempted = star.medium.stats().deliveries_attempted;
  out.frames_lost_channel =
      star.medium.stats().lost_random + star.medium.stats().lost_fault;
  out.metrics = registry.snapshot();
  return out;
}

std::string fingerprint(const ExperimentResult& result) {
  std::string out;
  const auto add = [&out](const char* key, std::uint64_t value) {
    out += key;
    out += '=';
    out += std::to_string(value);
    out += ' ';
  };
  add("offered", result.packets_offered);
  add("aff", result.aff_delivered);
  add("truth", result.truth_delivered);
  add("cksum", result.checksum_failures);
  add("confl", result.conflicting_writes);
  add("notif", result.notifications_sent);
  add("tx_bits", result.tx_bits);
  add("frames", result.frames_attempted);
  add("lost_ch", result.frames_lost_channel);
  out += "aff_sizes{";
  for (const auto& [size, n] : result.aff_by_size) {
    out += std::to_string(size) + ":" + std::to_string(n) + ",";
  }
  out += "} truth_sizes{";
  for (const auto& [size, n] : result.truth_by_size) {
    out += std::to_string(size) + ":" + std::to_string(n) + ",";
  }
  out += "}";
  return out;
}

}  // namespace retri::runner
