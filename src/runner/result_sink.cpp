#include "runner/result_sink.hpp"

#include "obs/export.hpp"
#include "runner/seeds.hpp"
#include "util/json.hpp"

namespace retri::runner {
namespace {

using util::JsonWriter;

void write_config(JsonWriter& json, const ExperimentConfig& config) {
  json.begin_object();
  json.member("senders", config.senders);
  json.member("topology", to_string(config.topology));
  json.member("id_bits", config.id_bits);
  json.key("selector").begin_object();
  json.member("policy", core::to_string(config.selector.policy));
  if (config.selector.policy == core::SelectorPolicy::kListening) {
    json.member("heed_notifications",
                config.selector.listening.heed_notifications);
  }
  if (config.selector.counter_salt != 0) {
    json.member("counter_salt", config.selector.counter_salt);
  }
  if (config.selector.permutation_period != 0) {
    json.member("permutation_period", config.selector.permutation_period);
  }
  json.end_object();
  if (config.attacker.active()) {
    json.key("attacker").begin_object();
    json.member("mode", fault::to_string(config.attacker.mode));
    json.member("flood_interval_ms",
                config.attacker.flood_interval.to_seconds() * 1e3);
    json.member("echo_delay_ms", config.attacker.echo_delay.to_seconds() * 1e3);
    json.member("echo_probability", config.attacker.echo_probability);
    json.member("junk_bytes", config.attacker.junk_bytes);
    json.end_object();
  }
  json.member("packet_bytes", config.packet_bytes);
  if (!config.per_sender_packet_bytes.empty()) {
    json.key("per_sender_packet_bytes").begin_array();
    for (const std::size_t bytes : config.per_sender_packet_bytes) {
      json.value(bytes);
    }
    json.end_array();
  }
  json.member("send_seconds", config.send_duration.to_seconds());
  json.member("drain_seconds", config.drain_extra.to_seconds());
  json.member("collision_notifications", config.collision_notifications);
  json.member("tx_jitter_ms", config.tx_jitter.to_seconds() * 1e3);
  json.member("sender_listen_duty", config.sender_listen_duty);
  json.member("duty_period_ms", config.duty_period.to_seconds() * 1e3);
  json.member("density_model", to_string(config.density_model));
  json.member("channel", config.channel);
  json.member("loss_rate", config.loss_rate);
  json.member("seed", config.seed);
  json.end_object();
}

void write_trial(JsonWriter& json, const ExperimentConfig& config,
                 const ExperimentResult& trial) {
  json.begin_object();
  json.member("seed", config.seed);
  json.member("packets_offered", trial.packets_offered);
  json.member("aff_delivered", trial.aff_delivered);
  json.member("truth_delivered", trial.truth_delivered);
  json.member("checksum_failures", trial.checksum_failures);
  json.member("conflicting_writes", trial.conflicting_writes);
  json.member("notifications_sent", trial.notifications_sent);
  json.member("receiver_density_estimate", trial.receiver_density_estimate);
  json.member("tx_energy_nj", trial.tx_energy_nj);
  json.member("tx_bits", trial.tx_bits);
  json.member("delivery_ratio", trial.delivery_ratio());
  json.member("collision_loss", trial.collision_loss_rate());
  json.member("frames_attempted", trial.frames_attempted);
  json.member("frames_lost_channel", trial.frames_lost_channel);
  json.member("observed_frame_loss", trial.observed_frame_loss());
  json.key("metrics");
  obs::write_metrics_object(json, trial.metrics);
  json.end_object();
}

void write_trial_set(JsonWriter& json, const stats::TrialSet& set) {
  const stats::Interval ci = set.ci95();
  json.begin_object();
  json.member("mean", set.mean());
  json.member("stddev", set.stddev());
  json.member("min", set.min());
  json.member("max", set.max());
  json.member("ci95_lo", ci.lo);
  json.member("ci95_hi", ci.hi);
  json.end_object();
}

}  // namespace

std::string ResultSink::to_json(const SweepResult& result, bool pretty) {
  JsonWriter json(pretty);
  json.begin_object();
  json.member("schema", "retri.sweep-result");
  json.member("schema_version", kSchemaVersion);

  json.key("sweep").begin_object();
  json.member("name", result.spec.name);
  json.member("description", result.spec.description);
  json.member("trials", result.spec.trials);
  json.member("base_seed", result.spec.base.seed);
  json.member("points", result.points.size());
  json.end_object();

  json.key("points").begin_array();
  for (const SweepPointResult& point : result.points) {
    json.begin_object();
    json.member("label", point.label);
    json.key("config");
    write_config(json, point.config);

    json.key("trials").begin_array();
    for (std::size_t t = 0; t < point.trials.size(); ++t) {
      ExperimentConfig trial_config = point.config;
      trial_config.seed = derive_trial_seed(point.config.seed, t);
      write_trial(json, trial_config, point.trials[t]);
    }
    json.end_array();

    json.key("aggregates").begin_object();
    json.key("delivery_ratio");
    write_trial_set(json, point.summary.delivery_ratio);
    json.key("collision_loss");
    write_trial_set(json, point.summary.collision_loss);
    json.key("metrics_total");
    obs::write_metrics_object(json, point.summary.metrics_total);
    json.end_object();

    json.end_object();
  }
  json.end_array();

  json.end_object();
  return json.str();
}

bool ResultSink::write_file(const std::string& path, const SweepResult& result,
                            std::string* error) {
  return obs::write_text_file(path, to_json(result), error);
}

}  // namespace retri::runner
