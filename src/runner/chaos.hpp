// Chaos trials: the full AFF stack under a randomized hostile channel,
// checked against conservation invariants, and soaks of many such trials.
//
// One chaos trial is run_experiment's §5.1 star (runner::Star: receiver
// node 0, N senders) with its channel drawn from the trial seed: a
// FaultInjector running a random_plan(), randomized medium knobs, churn
// crashing senders, and Poisson pacing when RF collisions are on. It runs
// the simulation to quiescence, probing live reassembly state every 50 ms,
// and then audits the run:
//
//   1. medium conservation — every attempted delivery (plus every
//      injector-duplicated copy) is accounted exactly once across the
//      MediumStatsSnapshot outcome buckets;
//   2. injector conservation — every intercepted delivery either dropped
//      in the burst state or forwarded as >= 1 copy;
//   3. reassembler conservation — fragments_seen partitions exactly into
//      accepted + malformed + orphan, for the AFF and ground-truth paths;
//   4. bounded state — live reassembly entries never exceed max_entries
//      (sampled by probe events) and drain to zero by the end of the run;
//   5. no forged delivery — every packet either delivery path hands to
//      the application is byte-identical to a packet some sender offered
//      (a delivered checksum-valid forgery would mean CRC32 was beaten);
//   6. impossible-direction agreement — when the plan cannot alter frame
//      content (no corruption/truncation) and the ground-truth path
//      closed no entry early (no timeouts/evictions), every packet the
//      AFF path delivered must also have been delivered by ground truth:
//      AFF identifiers can only lose packets the unique-id oracle keeps,
//      never the reverse.
//
// Violations come back as human-readable strings; an empty vector is a
// clean trial. Everything is keyed by ChaosTrialConfig::seed alone, so a
// trial is bit-identical however trials are sharded across workers, and
// run_chaos_soak's results are the same for any jobs value — the property
// the retri_chaos CLI's --jobs 1 vs --jobs 8 check rests on.
//
// A soak returns each trial as a ChaosCellRecord, the flat projection of a
// ChaosTrialResult containing exactly what retri_chaos prints and exports:
// plan description, the conservation counters, violations, and the
// canonical fingerprint — deliberately NOT the full nested stats structs,
// which would drag half the simulator's types into a serialization surface
// for no consumer. Records are what the memo store keeps (runner/memo.hpp),
// so a soak given a store serves the seeds earlier runs simulated. A
// chaos trial's fingerprint cannot be re-derived from the flat record (it
// covers the nested stats), so the fingerprint stored in the record body
// stands in for it: a hit is trusted when its CRC passes AND that stored
// fingerprint equals the one the cache entry was labeled with — a tampered
// body that still parses fails the cross-check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aff/reassembler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "runner/memo.hpp"
#include "sim/medium.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"

namespace retri::runner {

struct ChaosTrialConfig {
  std::size_t senders = 4;
  unsigned id_bits = 6;
  std::size_t packet_bytes = 80;
  std::size_t max_reassembly_entries = 64;
  sim::Duration reassembly_timeout = sim::Duration::seconds(2);
  sim::Duration send_duration = sim::Duration::seconds(5);
  /// Post-send settle margin; must comfortably exceed the reassembly
  /// timeout plus the plan's max_delay so invariant 4's drain-to-zero
  /// check is sound.
  sim::Duration drain_extra = sim::Duration::seconds(6);
  std::uint64_t seed = 1;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. run_chaos_trial applies this before building anything.
ChaosTrialConfig validated(ChaosTrialConfig config);

struct ChaosTrialResult {
  fault::FaultPlan plan;
  sim::MediumConfig medium_config;  // randomized native-channel knobs
  sim::MediumStatsSnapshot medium;
  fault::FaultStatsSnapshot faults;
  aff::ReassemblerStatsSnapshot aff_reassembly;    // receiver, AFF-keyed
  aff::ReassemblerStatsSnapshot truth_reassembly;  // receiver, unique-id-keyed
  std::uint64_t packets_offered = 0;
  std::uint64_t aff_delivered = 0;
  std::uint64_t truth_delivered = 0;
  std::uint64_t undecodable_frames = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::size_t max_pending_observed = 0;
  std::vector<std::string> violations;  // empty == clean trial

  bool clean() const noexcept { return violations.empty(); }
};

/// Runs one chaos trial. The fault plan is random_plan(derived from
/// config.seed); the node stacks and their seeds are runner::Star's.
ChaosTrialResult run_chaos_trial(const ChaosTrialConfig& config);

/// Canonical flat rendering of every counter in the result (violations
/// included). Two runs of the same config must produce identical
/// fingerprints — the jobs=1 vs jobs=8 determinism check compares these.
std::string fingerprint(const ChaosTrialResult& result);

/// Flat, serializable projection of one chaos trial.
struct ChaosCellRecord {
  std::string plan;  // FaultPlan::describe()
  std::uint64_t packets_offered = 0;
  std::uint64_t aff_delivered = 0;
  std::uint64_t truth_delivered = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::vector<std::string> violations;
  std::string fingerprint;  // runner::fingerprint at production time

  bool clean() const noexcept { return violations.empty(); }
  bool operator==(const ChaosCellRecord&) const = default;
};

ChaosCellRecord project(const ChaosTrialResult& result);

/// The one encoding of a ChaosCellRecord: the memo store's entry body and
/// each trial of retri_chaos's --out artifact (nested in its writer).
void write_chaos_record(util::JsonWriter& json, const ChaosCellRecord& record);

struct ChaosSoakOptions {
  unsigned seeds = 50;  // number of independent trials
  unsigned jobs = 1;
  /// Directory of the on-disk memo store; empty = no store. Trial i is
  /// keyed by its config with the trial seed baked in, under kCodeVersion,
  /// and stored as a "chaos-trial" entry.
  std::string cache_dir;
};

struct ChaosSoakResult {
  std::vector<ChaosCellRecord> records;  // in trial order
  MemoStats memo;  // trials served from the store vs simulated
};

/// Runs `options.seeds` trials (at least one) that the store, if any, does
/// not hold. Trial i's config is `base` with seed derive_trial_seed(
/// base.seed, i); records come back in trial order, bit-identical for any
/// jobs value, cold or warm.
ChaosSoakResult run_chaos_soak(const ChaosTrialConfig& base,
                               const ChaosSoakOptions& options);

}  // namespace retri::runner
