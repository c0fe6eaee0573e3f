#include "runner/result_sink.hpp"

#include "obs/export.hpp"
#include "runner/codec.hpp"
#include "runner/seeds.hpp"
#include "util/json.hpp"

namespace retri::runner {
namespace {

using util::JsonWriter;

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
      json.begin_object();
      json.member("seed", derive_trial_seed(point.config.seed, t));
      json.key("result");
      write_result(json, point.trials[t]);
      json.end_object();
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
