#include "runner/chaos.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <unordered_set>

#include "runner/seeds.hpp"
#include "runner/star.hpp"
#include "util/json_parse.hpp"
#include "util/validate.hpp"

namespace retri::runner {
namespace {

/// FNV-1a over packet content. Used as a set key for "was this exact
/// content offered/delivered"; a 64-bit accidental collision could mask a
/// violation but never fabricate one.
std::uint64_t content_hash(util::BytesView bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string fmt_violation(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

void append_stats(std::string& out, const char* label, std::uint64_t value) {
  out += label;
  out += '=';
  out += std::to_string(value);
  out += ' ';
}

constexpr std::string_view kChaosKind = "chaos-trial";

/// Canonical cell for one chaos trial (config with the trial seed baked
/// in), the cache-key input for chaos entries.
std::string canonical_chaos_cell(const ChaosTrialConfig& config) {
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

std::string stored_fingerprint(const ChaosCellRecord& record) {
  return record.fingerprint;
}

constexpr CellKind<ChaosTrialConfig, ChaosCellRecord> kChaosTrial{
    kChaosKind,
    &canonical_chaos_cell,
    [](const ChaosTrialConfig& config) {
      return project(run_chaos_trial(config));
    },
    &encode_chaos_record,
    &decode_chaos_record,
    &stored_fingerprint};

}  // namespace

ChaosTrialConfig validated(ChaosTrialConfig config) {
  util::Validator v{"ChaosTrialConfig"};
  v.at_least("senders", config.senders, 1);
  v.in_range("id_bits", config.id_bits, 1, 64);
  v.at_least("packet_bytes", config.packet_bytes, 1);
  v.at_least("max_reassembly_entries", config.max_reassembly_entries, 1);
  v.positive_seconds("reassembly_timeout",
                     config.reassembly_timeout.to_seconds());
  v.positive_seconds("send_duration", config.send_duration.to_seconds());
  if (config.drain_extra <= config.reassembly_timeout) {
    v.fail_bare("drain_extra",
                "exceed reassembly_timeout (invariant 4's drain-to-zero "
                "check needs pending entries to expire before measurement)");
  }
  return config;
}

ChaosTrialResult run_chaos_trial(const ChaosTrialConfig& config) {
  validated(config);  // reject bad knobs before any component exists
  ChaosTrialResult out;

  // Independent derived seeds per subsystem, same discipline as the
  // injector's per-family streams: adding a subsystem never perturbs the
  // draws of another for the same trial seed.
  util::SplitMix64 mix(config.seed ^ 0xc4a05'5eedULL);
  const std::uint64_t plan_seed = mix.next();
  const std::uint64_t knob_seed = mix.next();
  const std::uint64_t medium_seed = mix.next();
  const std::uint64_t injector_seed = mix.next();
  const std::uint64_t churn_seed = mix.next();

  out.plan = fault::random_plan(plan_seed);

  // The star run_experiment would build for this size, with the channel,
  // pacing, reassembly bounds and subsystem seeds drawn from the trial.
  ExperimentConfig experiment;
  experiment.senders = config.senders;
  experiment.id_bits = config.id_bits;
  experiment.packet_bytes = config.packet_bytes;
  experiment.send_duration = config.send_duration;
  experiment.drain_extra = config.drain_extra;
  experiment.collision_notifications = true;
  experiment.seed = config.seed;
  StarSpec spec = star_spec(experiment);
  spec.faults = out.plan;
  spec.reassembly_timeout = config.reassembly_timeout;
  spec.max_reassembly_entries = config.max_reassembly_entries;
  spec.medium_seed = medium_seed;
  spec.injector_seed = injector_seed;
  spec.churn_seed = churn_seed;
  // Invariant 4's probe samples every node's truth table, and a sender's
  // truth entries also keep its expiry timer's phase.
  spec.sender_truth = true;

  // The native channel knobs randomize too: faults must compose with RF
  // collisions, half-duplex, and independent loss, not replace them.
  util::Xoshiro256 knobs(knob_seed);
  sim::MediumConfig& medium_config = spec.medium;
  medium_config.per_link_loss = knobs.chance(0.5) ? knobs.uniform() * 0.15 : 0.0;
  medium_config.rf_collisions = knobs.chance(0.3);
  medium_config.half_duplex = knobs.chance(0.3);
  medium_config.propagation_delay = sim::Duration::microseconds(
      static_cast<std::int64_t>(knobs.below(200)));
  out.medium_config = medium_config;

  // Saturating senders offer ~3x channel capacity, so with RF collisions
  // on the overlap probability is ~1 and nothing survives to exercise the
  // reassemblers. Pace those trials with Poisson arrivals instead (mean
  // interarrival 150-400ms, ~0.3-0.8 utilization): collisions still
  // happen, but the trial stays informative.
  const sim::Duration poisson_mean = sim::Duration::milliseconds(
      150 + static_cast<std::int64_t>(knobs.below(251)));
  if (medium_config.rf_collisions) spec.poisson_mean = poisson_mean;

  Star star(spec);
  aff::AffDriver& receiver = *star.receiver.driver;

  std::unordered_set<std::uint64_t> offered;
  std::unordered_set<std::uint64_t> aff_content;
  std::unordered_set<std::uint64_t> truth_content;
  std::uint64_t aff_foreign = 0;
  std::uint64_t truth_foreign = 0;
  receiver.set_packet_handler([&](util::BytesView packet) {
    ++out.aff_delivered;
    const std::uint64_t h = content_hash(packet);
    aff_content.insert(h);
    if (!offered.contains(h)) ++aff_foreign;
  });
  receiver.set_truth_packet_handler([&](util::BytesView packet) {
    ++out.truth_delivered;
    const std::uint64_t h = content_hash(packet);
    truth_content.insert(h);
    if (!offered.contains(h)) ++truth_foreign;
  });
  for (const Star::Node& s : star.senders) {
    s.source->set_packet_observer([&offered](util::BytesView packet) {
      offered.insert(content_hash(packet));
    });
  }

  // Probe events sample live reassembly entry counts across the whole run
  // so invariant 4 is checked mid-flight, not just at quiescence.
  const sim::TimePoint end =
      sim::TimePoint::origin() + config.send_duration + config.drain_extra;
  const sim::Duration probe_period = sim::Duration::milliseconds(50);
  const auto sample_pending = [&]() {
    std::size_t peak = receiver.aff_reassembler().pending_count();
    peak = std::max(peak, receiver.truth_reassembler()->pending_count());
    for (const Star::Node& s : star.senders) {
      peak = std::max(peak, s.driver->aff_reassembler().pending_count());
      peak = std::max(peak, s.driver->truth_reassembler()->pending_count());
    }
    out.max_pending_observed = std::max(out.max_pending_observed, peak);
  };
  for (sim::TimePoint t = sim::TimePoint::origin() + probe_period; t <= end;
       t = t + probe_period) {
    star.sim.schedule_at(t, sample_pending);
  }

  star.sim.run_until(end);
  sample_pending();

  out.medium = star.medium.stats();
  out.faults = star.injector->stats();
  out.aff_reassembly = receiver.aff_reassembler().stats();
  out.truth_reassembly = receiver.truth_reassembler()->stats();
  out.undecodable_frames = receiver.stats().undecodable_frames;
  if (star.churn != nullptr) {
    out.crashes = star.churn->crashes();
    out.restarts = star.churn->restarts();
  }
  for (const Star::Node& s : star.senders) {
    out.packets_offered += s.source->packets_sent();
  }

  // ---- invariant audit ----

  const sim::MediumStatsSnapshot& m = out.medium;
  const std::uint64_t accounted = m.delivered + m.lost_random +
                                  m.lost_rf_collision + m.lost_half_duplex +
                                  m.lost_disabled + m.lost_fault;
  if (m.deliveries_attempted + m.fault_extra_deliveries != accounted) {
    out.violations.push_back(fmt_violation(
        "medium conservation: attempted=%llu + extra=%llu != accounted=%llu",
        static_cast<unsigned long long>(m.deliveries_attempted),
        static_cast<unsigned long long>(m.fault_extra_deliveries),
        static_cast<unsigned long long>(accounted)));
  }

  const fault::FaultStatsSnapshot& f = out.faults;
  if (f.intercepted != f.dropped_burst + f.forwarded) {
    out.violations.push_back(fmt_violation(
        "injector conservation: intercepted=%llu != dropped=%llu + "
        "forwarded=%llu",
        static_cast<unsigned long long>(f.intercepted),
        static_cast<unsigned long long>(f.dropped_burst),
        static_cast<unsigned long long>(f.forwarded)));
  }
  if (f.copies_emitted < f.forwarded) {
    out.violations.push_back(fmt_violation(
        "injector copies: emitted=%llu < forwarded=%llu",
        static_cast<unsigned long long>(f.copies_emitted),
        static_cast<unsigned long long>(f.forwarded)));
  }

  const auto check_partition = [&](const char* label,
                                   const aff::ReassemblerStatsSnapshot& r) {
    if (r.fragments_seen !=
        r.accepted_fragments + r.malformed + r.orphan_fragments) {
      out.violations.push_back(fmt_violation(
          "%s reassembly partition: seen=%llu != accepted=%llu + "
          "malformed=%llu + orphans=%llu",
          label, static_cast<unsigned long long>(r.fragments_seen),
          static_cast<unsigned long long>(r.accepted_fragments),
          static_cast<unsigned long long>(r.malformed),
          static_cast<unsigned long long>(r.orphan_fragments)));
    }
  };
  check_partition("aff", out.aff_reassembly);
  check_partition("truth", out.truth_reassembly);

  if (out.max_pending_observed > config.max_reassembly_entries) {
    out.violations.push_back(fmt_violation(
        "bounded state: observed %zu live entries > max_entries=%zu",
        out.max_pending_observed, config.max_reassembly_entries));
  }
  const std::size_t residue = receiver.aff_reassembler().pending_count() +
                              receiver.truth_reassembler()->pending_count();
  if (residue != 0) {
    out.violations.push_back(fmt_violation(
        "bounded state: %zu receiver entries still live after drain",
        residue));
  }

  if (aff_foreign != 0 || truth_foreign != 0) {
    out.violations.push_back(fmt_violation(
        "forged delivery: %llu aff + %llu truth packets delivered whose "
        "content no sender offered",
        static_cast<unsigned long long>(aff_foreign),
        static_cast<unsigned long long>(truth_foreign)));
  }

  // Impossible direction: the AFF path delivering a packet the unique-id
  // oracle missed. Only claimable when frame content is trustworthy and
  // the truth path closed nothing early (timeouts/evictions can kill a
  // truth entry while identifier reuse keeps the AFF entry alive).
  if (!out.plan.corrupting() && out.truth_reassembly.timeouts == 0 &&
      out.truth_reassembly.evicted == 0) {
    std::uint64_t aff_only = 0;
    for (const std::uint64_t h : aff_content) {
      if (!truth_content.contains(h)) ++aff_only;
    }
    if (aff_only != 0) {
      out.violations.push_back(fmt_violation(
          "impossible direction: %llu packets delivered by the AFF path "
          "but not by ground truth",
          static_cast<unsigned long long>(aff_only)));
    }
  }

  return out;
}

std::string fingerprint(const ChaosTrialResult& r) {
  std::string out;
  out.reserve(512);
  out += "plan{" + r.plan.describe() + "} ";
  append_stats(out, "frames_sent", r.medium.frames_sent);
  append_stats(out, "attempted", r.medium.deliveries_attempted);
  append_stats(out, "delivered", r.medium.delivered);
  append_stats(out, "lost_random", r.medium.lost_random);
  append_stats(out, "lost_rf", r.medium.lost_rf_collision);
  append_stats(out, "lost_hdx", r.medium.lost_half_duplex);
  append_stats(out, "lost_off", r.medium.lost_disabled);
  append_stats(out, "lost_fault", r.medium.lost_fault);
  append_stats(out, "fault_extra", r.medium.fault_extra_deliveries);
  append_stats(out, "intercepted", r.faults.intercepted);
  append_stats(out, "dropped_burst", r.faults.dropped_burst);
  append_stats(out, "corrupted", r.faults.corrupted_copies);
  append_stats(out, "truncated", r.faults.truncated_copies);
  append_stats(out, "delayed", r.faults.delayed_copies);
  append_stats(out, "copies", r.faults.copies_emitted);
  append_stats(out, "offered", r.packets_offered);
  append_stats(out, "aff", r.aff_delivered);
  append_stats(out, "truth", r.truth_delivered);
  append_stats(out, "undecodable", r.undecodable_frames);
  append_stats(out, "crashes", r.crashes);
  append_stats(out, "restarts", r.restarts);
  append_stats(out, "aff_seen", r.aff_reassembly.fragments_seen);
  append_stats(out, "aff_checksum_failed", r.aff_reassembly.checksum_failed);
  append_stats(out, "aff_conflicts", r.aff_reassembly.conflicting_writes);
  append_stats(out, "truth_seen", r.truth_reassembly.fragments_seen);
  append_stats(out, "max_pending", r.max_pending_observed);
  out += "violations=" + std::to_string(r.violations.size());
  for (const std::string& v : r.violations) out += "; " + v;
  return out;
}

ChaosCellRecord project(const ChaosTrialResult& result) {
  ChaosCellRecord record;
  record.plan = result.plan.describe();
  record.packets_offered = result.packets_offered;
  record.aff_delivered = result.aff_delivered;
  record.truth_delivered = result.truth_delivered;
  record.crashes = result.crashes;
  record.restarts = result.restarts;
  record.violations = result.violations;
  record.fingerprint = fingerprint(result);
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

ChaosSoakResult run_chaos_soak(const ChaosTrialConfig& base,
                               const ChaosSoakOptions& options) {
  std::vector<ChaosTrialConfig> cells(options.seeds == 0 ? 1 : options.seeds,
                                      base);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].seed = derive_trial_seed(base.seed, i);
  }
  ChaosSoakResult soak;
  soak.memo = memoize(kChaosTrial, cells, options.cache_dir, options.jobs,
                      soak.records);
  return soak;
}

}  // namespace retri::runner
