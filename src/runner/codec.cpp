#include "runner/codec.hpp"

#include <utility>

#include "obs/export.hpp"

namespace retri::runner {

namespace {

using util::JsonValue;

// --- strict field extraction ----------------------------------------------
// Each getter either fills `out` or records the first error. Decoders bail
// on the first failure; the message names the offending key so a corrupt
// cache body is diagnosable from the error alone.

bool fail(std::string& err, std::string_view key, std::string_view what) {
  if (err.empty()) {
    err = "field \"" + std::string(key) + "\": " + std::string(what);
  }
  return false;
}

bool get_u64(const JsonValue& doc, std::string_view key, std::uint64_t& out,
             std::string& err) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || !v->is_number()) return fail(err, key, "expected number");
  out = v->as_u64();
  return true;
}

bool get_dbl(const JsonValue& doc, std::string_view key, double& out,
             std::string& err) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || !v->is_number()) return fail(err, key, "expected number");
  out = v->as_double();
  return true;
}

bool get_array(const JsonValue& doc, std::string_view key,
               const JsonValue*& out, std::string& err) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || !v->is_array()) return fail(err, key, "expected array");
  out = v;
  return true;
}

// Selector/attacker sub-objects of the canonical cell. Every field is
// written unconditionally: canonical_cell must be a pure function of the
// config.

void write_selector(util::JsonWriter& json, const core::SelectorSpec& spec) {
  json.begin_object();
  json.member("policy", core::to_string(spec.policy));
  json.member("initial_density", spec.listening.initial_density);
  json.member("fixed_window",
              static_cast<std::uint64_t>(spec.listening.fixed_window));
  json.member("heed_notifications", spec.listening.heed_notifications);
  json.member("notification_multiplier",
              static_cast<std::uint64_t>(spec.listening.notification_multiplier));
  json.member("counter_salt", spec.counter_salt);
  json.member("permutation_period", spec.permutation_period);
  json.end_object();
}

void write_attacker(util::JsonWriter& json, const fault::AttackerPlan& plan) {
  json.begin_object();
  json.member("mode", fault::to_string(plan.mode));
  json.member("flood_interval_ns", plan.flood_interval.ns());
  json.member("echo_delay_ns", plan.echo_delay.ns());
  json.member("echo_probability", plan.echo_probability);
  json.member("junk_bytes", static_cast<std::uint64_t>(plan.junk_bytes));
  json.end_object();
}

void write_size_map(util::JsonWriter& json, std::string_view key,
                    const std::map<std::size_t, std::uint64_t>& by_size) {
  json.key(key);
  json.begin_array();
  for (const auto& [size, count] : by_size) {
    json.begin_array();
    json.value(static_cast<std::uint64_t>(size));
    json.value(count);
    json.end_array();
  }
  json.end_array();
}

bool decode_size_map(const JsonValue& doc, std::string_view key,
                     std::map<std::size_t, std::uint64_t>& out,
                     std::string& err) {
  const JsonValue* array = nullptr;
  if (!get_array(doc, key, array, err)) return false;
  for (const JsonValue& pair : array->items()) {
    if (!pair.is_array() || pair.size() != 2 || !pair[0].is_number() ||
        !pair[1].is_number()) {
      return fail(err, key, "expected [size, count] pairs");
    }
    out[static_cast<std::size_t>(pair[0].as_u64())] = pair[1].as_u64();
  }
  return true;
}

bool decode_metrics(const JsonValue& doc, obs::MetricsSnapshot& out,
                    std::string& err) {
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr) return fail(err, "metrics", "expected object");
  auto decoded = obs::decode_metrics_object(*metrics);
  if (!decoded.ok()) return fail(err, "metrics", decoded.error());
  out = std::move(decoded).value();
  return true;
}

}  // namespace

// --- ExperimentConfig ------------------------------------------------------

void write_config(util::JsonWriter& json, const ExperimentConfig& config) {
  json.begin_object();
  json.member("senders", static_cast<std::uint64_t>(config.senders));
  json.member("topology", to_string(config.topology));
  json.member("id_bits", static_cast<std::uint64_t>(config.id_bits));
  json.key("selector");
  write_selector(json, config.selector);
  json.key("attacker");
  write_attacker(json, config.attacker);
  json.member("packet_bytes", static_cast<std::uint64_t>(config.packet_bytes));
  json.key("per_sender_packet_bytes");
  json.begin_array();
  for (const std::size_t bytes : config.per_sender_packet_bytes) {
    json.value(static_cast<std::uint64_t>(bytes));
  }
  json.end_array();
  json.member("send_ns", config.send_duration.ns());
  json.member("drain_ns", config.drain_extra.ns());
  json.member("collision_notifications", config.collision_notifications);
  json.member("tx_jitter_ns", config.tx_jitter.ns());
  json.member("sender_listen_duty", config.sender_listen_duty);
  json.member("duty_period_ns", config.duty_period.ns());
  json.member("density_model", to_string(config.density_model));
  json.member("loss_rate", config.loss_rate);
  json.member("channel", to_string(config.channel));
  json.member("seed", config.seed);
  json.end_object();
}

std::string canonical_cell(const ExperimentConfig& config) {
  util::JsonWriter json(/*pretty=*/false);
  write_config(json, config);
  return json.str();
}

// --- ExperimentResult ------------------------------------------------------

void write_result(util::JsonWriter& json, const ExperimentResult& result) {
  json.begin_object();
  json.member("packets_offered", result.packets_offered);
  json.member("aff_delivered", result.aff_delivered);
  json.member("truth_delivered", result.truth_delivered);
  json.member("checksum_failures", result.checksum_failures);
  json.member("conflicting_writes", result.conflicting_writes);
  json.member("notifications_sent", result.notifications_sent);
  json.member("receiver_density_estimate", result.receiver_density_estimate);
  json.member("tx_energy_nj", result.tx_energy_nj);
  json.member("tx_bits", result.tx_bits);
  json.member("frames_attempted", result.frames_attempted);
  json.member("frames_lost_channel", result.frames_lost_channel);
  json.key("metrics");
  obs::write_metrics_object(json, result.metrics);
  write_size_map(json, "aff_by_size", result.aff_by_size);
  write_size_map(json, "truth_by_size", result.truth_by_size);
  json.end_object();
}

std::string encode_result(const ExperimentResult& result) {
  util::JsonWriter json(/*pretty=*/false);
  write_result(json, result);
  return json.str();
}

util::Result<ExperimentResult, std::string> decode_result(
    const util::JsonValue& doc) {
  if (!doc.is_object()) return std::string("result: expected object");
  ExperimentResult result;
  std::string err;
  if (!get_u64(doc, "packets_offered", result.packets_offered, err) ||
      !get_u64(doc, "aff_delivered", result.aff_delivered, err) ||
      !get_u64(doc, "truth_delivered", result.truth_delivered, err) ||
      !get_u64(doc, "checksum_failures", result.checksum_failures, err) ||
      !get_u64(doc, "conflicting_writes", result.conflicting_writes, err) ||
      !get_u64(doc, "notifications_sent", result.notifications_sent, err) ||
      !get_dbl(doc, "receiver_density_estimate",
               result.receiver_density_estimate, err) ||
      !get_dbl(doc, "tx_energy_nj", result.tx_energy_nj, err) ||
      !get_u64(doc, "tx_bits", result.tx_bits, err) ||
      !get_u64(doc, "frames_attempted", result.frames_attempted, err) ||
      !get_u64(doc, "frames_lost_channel", result.frames_lost_channel, err) ||
      !decode_metrics(doc, result.metrics, err) ||
      !decode_size_map(doc, "aff_by_size", result.aff_by_size, err) ||
      !decode_size_map(doc, "truth_by_size", result.truth_by_size, err)) {
    return "result: " + err;
  }
  return result;
}

util::Result<ExperimentResult, std::string> decode_result_text(
    std::string_view text) {
  auto parsed = util::parse_json(text);
  if (!parsed.ok()) return "result: " + parsed.error().describe();
  return decode_result(parsed.value());
}

}  // namespace retri::runner
