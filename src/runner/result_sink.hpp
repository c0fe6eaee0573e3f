// Machine-diffable JSON export of sweep results.
//
// Bench output used to be printf tables nothing could diff or track over
// time; the sink turns a SweepResult into a schema-versioned artifact
// (--out FILE) carrying the full provenance chain: sweep identity, every
// point's concrete config, every trial's result, and the aggregate
// statistics the paper plots. Configs and trial results are written in
// runner/codec.hpp's encoding, the same bytes the memo store keys and
// stores, so the artifact cannot report a field the memo key misses. The
// serialization is a pure function of the SweepResult — no timestamps,
// hostnames, or worker counts — so two runs of the same sweep produce
// byte-identical files regardless of --jobs, and `cmp a.json b.json` is a
// valid determinism check.
#pragma once

#include <string>

#include "runner/sweep.hpp"

namespace retri::runner {

class ResultSink {
 public:
  /// Bumped whenever the emitted structure changes shape.
  /// v2: config gains channel/loss_rate; trials gain frames_attempted,
  /// frames_lost_channel, observed_frame_loss.
  /// v3: trials gain a "metrics" object (the trial's obs::MetricsSnapshot)
  /// and aggregates gain "metrics_total" (snapshots folded in trial order).
  /// v4: optional serve provenance ("served_by", per-trial "cache"),
  /// emitted only on request; no longer produced, and never part of the
  /// default artifact.
  /// v5: config's flat "policy" string becomes a structured "selector"
  /// object {policy, heed_notifications?, counter_salt?,
  /// permutation_period?}; configs with an active attacker gain an
  /// "attacker" object {mode, flood_interval_ms, echo_delay_ms,
  /// echo_probability, junk_bytes}.
  /// v6: one encoding per type. Each point's "config" is the memo key's
  /// write_config (every field, durations as integer *_ns); each trial is
  /// {"seed", "result"} with the memo body's write_result, so the per-trial
  /// delivery_ratio, collision_loss and observed_frame_loss are gone (the
  /// aggregates keep delivery_ratio and collision_loss).
  /// v7: senders run no ground-truth reassembly, so each trial's "metrics"
  /// loses every sender's n<k>.aff.truth.* and n<k>.aff.truth_packets_delivered
  /// entries (the receiver keeps its own).
  static constexpr int kSchemaVersion = 7;

  /// Serializes `result` (pretty-printed when `pretty`).
  static std::string to_json(const SweepResult& result, bool pretty = true);

  /// Writes to_json() to `path`. Returns false and fills `error` (if
  /// non-null) when the file cannot be written.
  static bool write_file(const std::string& path, const SweepResult& result,
                         std::string* error = nullptr);
};

}  // namespace retri::runner
