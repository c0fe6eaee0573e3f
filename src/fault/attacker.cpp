#include "fault/attacker.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"
#include "util/validate.hpp"

namespace retri::fault {
namespace {

// Stream indices for the per-family splitmix64 derivation, continuing the
// injector's scheme under a distinct tag so an attacker and an injector
// sharing a base seed still draw from unrelated streams. Appending new
// families is fine; reordering would silently change every seeded run.
enum Stream : std::uint64_t {
  kGuess = 0,
  kEcho = 1,
  kJunk = 2,
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 mix(seed ^ (0xa77ac'0000ULL + stream));
  return mix.next();
}

}  // namespace

std::string_view to_string(AttackerMode mode) noexcept {
  switch (mode) {
    case AttackerMode::kOff: return "off";
    case AttackerMode::kBlindFlood: return "blind_flood";
    case AttackerMode::kEchoCollide: return "echo_collide";
  }
  return "?";
}

std::vector<std::string_view> attacker_modes() {
  return {to_string(AttackerMode::kOff), to_string(AttackerMode::kBlindFlood),
          to_string(AttackerMode::kEchoCollide)};
}

util::Result<AttackerMode, std::string> parse_attacker_mode(
    std::string_view name) {
  for (const AttackerMode mode :
       {AttackerMode::kOff, AttackerMode::kBlindFlood,
        AttackerMode::kEchoCollide}) {
    if (name == to_string(mode)) return mode;
  }
  std::string error =
      "unknown attacker mode \"" + std::string(name) + "\"; available modes:";
  for (const std::string_view known : attacker_modes()) {
    error += ' ';
    error += known;
  }
  return error;
}

AttackerPlan validated(AttackerPlan plan) {
  util::Validator v{"AttackerPlan"};
  v.positive_seconds("flood_interval", plan.flood_interval.to_seconds());
  v.non_negative_seconds("echo_delay", plan.echo_delay.to_seconds());
  v.probability("echo_probability", plan.echo_probability);
  v.at_least("junk_bytes", plan.junk_bytes, 1);
  return plan;
}

AttackerNode::AttackerNode(sim::BroadcastMedium& medium, sim::NodeId node,
                           AttackerPlan plan, aff::WireConfig wire,
                           std::uint64_t seed, obs::Hooks hooks)
    : plan_(validated(plan)),
      wire_(aff::validated(wire)),
      node_(node),
      radio_(medium, node, radio::RadioConfig{}, radio::EnergyModel::rpc_like(),
             util::SplitMix64(seed ^ 0xa77ac'ffffULL).next()),
      guess_rng_(derive(seed, kGuess)),
      echo_rng_(derive(seed, kEcho)),
      junk_rng_(derive(seed, kJunk)),
      owned_metrics_(hooks.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()) {
  obs::MetricsRegistry& m =
      hooks.metrics != nullptr ? *hooks.metrics : *owned_metrics_;
  counters_.intros_overheard = m.counter("attacker.intros_overheard");
  counters_.echoes_sent = m.counter("attacker.echoes_sent");
  counters_.floods_sent = m.counter("attacker.floods_sent");
  counters_.frames_forged = m.counter("attacker.frames_forged");
}

AttackerStatsSnapshot AttackerNode::stats() const noexcept {
  AttackerStatsSnapshot s;
  s.intros_overheard = counters_.intros_overheard.value();
  s.echoes_sent = counters_.echoes_sent.value();
  s.floods_sent = counters_.floods_sent.value();
  s.frames_forged = counters_.frames_forged.value();
  return s;
}

void AttackerNode::start(sim::TimePoint until) {
  until_ = until;
  armed_ = true;
  if (plan_.mode == AttackerMode::kBlindFlood) {
    radio_.simulator().schedule_after(plan_.flood_interval,
                                      [this] { flood_tick(); });
  }
}

void AttackerNode::flood_tick() {
  sim::Simulator& sim = radio_.simulator();
  if (sim.now() >= until_) return;
  const core::IdSpace space(wire_.id_bits);
  const core::TransactionId guess(space.bits() >= 64
                                      ? guess_rng_.next()
                                      : guess_rng_.below(space.size()));
  forge_transaction(guess);
  counters_.floods_sent.inc();
  sim.schedule_after(plan_.flood_interval, [this] { flood_tick(); });
}

void AttackerNode::forge_transaction(core::TransactionId id) {
  // Keep the whole forged transaction in two frames: one intro, one data
  // fragment whose payload still fits the radio's frame limit.
  const std::size_t max_payload =
      radio_.config().max_frame_bytes - aff::data_header_bytes(wire_);
  const std::size_t junk_len = std::min(plan_.junk_bytes, max_payload);

  util::Bytes junk(junk_len);
  for (std::size_t i = 0; i < junk_len; ++i) {
    junk[i] = static_cast<std::uint8_t>(junk_rng_.next());
  }

  // The advertised checksum is drawn at random, so the forged transaction
  // (essentially) never completes as a *valid* packet on either the AFF or
  // the instrumented-truth path — its effect is purely the collision
  // damage it inflicts on the victim's reassembly entry.
  aff::IntroFragment intro;
  intro.id = id;
  intro.total_len = static_cast<std::uint16_t>(junk_len);
  intro.checksum = static_cast<std::uint32_t>(junk_rng_.next());

  aff::DataFragment data;
  data.id = id;
  data.offset = 0;
  data.payload = junk;

  // The attacker's forged packets carry its own (node, seq) true ids, so
  // instrumented truth accounting stays collision-free and the ground
  // truth of victim traffic is never misattributed.
  const std::uint64_t true_id =
      (static_cast<std::uint64_t>(node_) << 32) | next_true_seq_++;
  const std::optional<std::uint64_t> instrumented =
      wire_.instrumented ? std::optional<std::uint64_t>(true_id)
                         : std::nullopt;

  radio_.send(aff::encode_intro(wire_, intro, instrumented));
  counters_.frames_forged.inc();
  radio_.send(aff::encode_data(wire_, data, instrumented));
  counters_.frames_forged.inc();
}

void AttackerNode::snoop(const util::SharedBytes& payload) {
  aff::DecodedFragment decoded;
  if (!aff::decode(wire_, payload.view(), decoded)) return;
  const auto* intro = std::get_if<aff::IntroFragment>(&decoded.body);
  if (intro == nullptr) return;
  counters_.intros_overheard.inc();
  if (!echo_rng_.chance(plan_.echo_probability)) return;
  const core::TransactionId victim = intro->id;
  counters_.echoes_sent.inc();
  radio_.simulator().schedule_after(
      plan_.echo_delay, [this, victim] { forge_transaction(victim); });
}

std::vector<sim::DeliveryInterceptor::Injected> AttackerNode::intercept(
    sim::NodeId from, sim::NodeId to, const util::SharedBytes& payload) {
  std::vector<sim::DeliveryInterceptor::Injected> copies;
  if (inner_ != nullptr) {
    copies = inner_->intercept(from, to, payload);
  } else {
    copies.push_back({payload, sim::Duration::nanoseconds(0)});
  }
  // Snoop only the copies that actually reach the attacker's position —
  // the interception seam is a convenience, not x-ray vision: a frame the
  // channel dropped for everyone is not overheard either.
  if (armed_ && plan_.mode == AttackerMode::kEchoCollide && to == node_ &&
      from != node_ && radio_.simulator().now() < until_) {
    for (const auto& copy : copies) snoop(copy.payload);
  }
  return copies;
}

}  // namespace retri::fault
