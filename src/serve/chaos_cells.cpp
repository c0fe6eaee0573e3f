#include "serve/chaos_cells.hpp"

#include <utility>

#include "runner/seeds.hpp"
#include "util/json_parse.hpp"

namespace retri::serve {

namespace {

constexpr std::string_view kChaosKind = "chaos-trial";

std::string stored_fingerprint(const ChaosCellRecord& record) {
  return record.fingerprint;
}

constexpr CellCodec<ChaosCellRecord> kChaosTrial{
    kChaosKind, &encode_chaos_record, &decode_chaos_record,
    &stored_fingerprint};

}  // namespace

ChaosCellRecord project(const runner::ChaosTrialResult& result) {
  ChaosCellRecord record;
  record.plan = result.plan.describe();
  record.packets_offered = result.packets_offered;
  record.aff_delivered = result.aff_delivered;
  record.truth_delivered = result.truth_delivered;
  record.crashes = result.crashes;
  record.restarts = result.restarts;
  record.violations = result.violations;
  record.fingerprint = runner::fingerprint(result);
  return record;
}

void write_chaos_record(util::JsonWriter& json, const ChaosCellRecord& record) {
  json.begin_object();
  json.member("plan", record.plan);
  json.member("packets_offered", record.packets_offered);
  json.member("aff_delivered", record.aff_delivered);
  json.member("truth_delivered", record.truth_delivered);
  json.member("crashes", record.crashes);
  json.member("restarts", record.restarts);
  json.key("violations");
  json.begin_array();
  for (const std::string& violation : record.violations) {
    json.value(violation);
  }
  json.end_array();
  json.member("fingerprint", record.fingerprint);
  json.end_object();
}

std::string encode_chaos_record(const ChaosCellRecord& record) {
  util::JsonWriter json(/*pretty=*/false);
  write_chaos_record(json, record);
  return json.str();
}

util::Result<ChaosCellRecord, std::string> decode_chaos_record(
    std::string_view text) {
  auto parsed = util::parse_json(text);
  if (!parsed.ok()) return "chaos record: " + parsed.error().describe();
  const util::JsonValue& doc = parsed.value();
  if (!doc.is_object()) return std::string("chaos record: expected object");
  const util::JsonValue* violations = doc.find("violations");
  const util::JsonValue* fingerprint = doc.find("fingerprint");
  if (violations == nullptr || !violations->is_array() ||
      fingerprint == nullptr || !fingerprint->is_string()) {
    return std::string("chaos record: missing violations/fingerprint");
  }
  ChaosCellRecord record;
  record.plan = doc.str("plan");
  record.packets_offered = doc.u64("packets_offered");
  record.aff_delivered = doc.u64("aff_delivered");
  record.truth_delivered = doc.u64("truth_delivered");
  record.crashes = doc.u64("crashes");
  record.restarts = doc.u64("restarts");
  for (const util::JsonValue& violation : violations->items()) {
    if (!violation.is_string()) {
      return std::string("chaos record: violations must be strings");
    }
    record.violations.push_back(violation.as_string());
  }
  record.fingerprint = fingerprint->as_string();
  return record;
}

std::string canonical_chaos_cell(const runner::ChaosTrialConfig& config) {
  util::JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.member("kind", kChaosKind);
  json.member("senders", static_cast<std::uint64_t>(config.senders));
  json.member("id_bits", static_cast<std::uint64_t>(config.id_bits));
  json.member("packet_bytes",
              static_cast<std::uint64_t>(config.packet_bytes));
  json.member("max_reassembly_entries",
              static_cast<std::uint64_t>(config.max_reassembly_entries));
  json.member("reassembly_timeout_ns", config.reassembly_timeout.ns());
  json.member("send_ns", config.send_duration.ns());
  json.member("drain_ns", config.drain_extra.ns());
  json.member("seed", config.seed);
  json.end_object();
  return json.str();
}

CachedChaosSoak run_cached_chaos_soak(const runner::ChaosTrialConfig& base,
                                      unsigned seeds,
                                      const MemoOptions& options) {
  std::vector<runner::ChaosTrialConfig> configs(seeds == 0 ? 1 : seeds, base);
  std::vector<std::string> keys;
  keys.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].seed = runner::derive_trial_seed(base.seed, i);
    keys.push_back(
        ResultCache::make_key(kCodeVersion, canonical_chaos_cell(configs[i])));
  }

  ResultCache cache(CacheOptions{options.cache_dir});
  CachedChaosSoak soak;
  soak.stats = memoize(
      cache, kChaosTrial, keys, options.jobs,
      [&configs](std::size_t i) {
        return project(runner::run_chaos_trial(configs[i]));
      },
      soak.records);
  return soak;
}

}  // namespace retri::serve
