// Memoized chaos soaks: the ResultCache applied to fault trials.
//
// A chaos trial is (like a sweep trial) a pure function of its config, so
// a re-run or extended soak need not re-simulate the seeds earlier runs
// finished. ChaosCellRecord
// is the flat projection of a ChaosTrialResult containing exactly what
// retri_chaos prints and exports — plan description, the conservation
// counters, violations, and the canonical fingerprint — deliberately NOT
// the full nested stats structs, which would drag half the simulator's
// types into a serialization surface for no consumer.
//
// Hit verification (serve::memoize) differs from sweep trials only in what
// counts as the record's fingerprint: a chaos trial's runner::fingerprint
// cannot be re-derived from the flat record (it covers the nested stats), so the
// fingerprint stored in the record body stands in for it. A hit is then
// trusted when its CRC passes AND that stored fingerprint equals the one
// the cache entry was labeled with — a tampered body that still parses
// fails the cross-check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runner/chaos.hpp"
#include "serve/memo.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace retri::serve {

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

ChaosCellRecord project(const runner::ChaosTrialResult& result);

/// The one encoding of a ChaosCellRecord: the memo store's entry body
/// (encode_chaos_record, compact) and each trial of retri_chaos's --out
/// artifact (write_chaos_record, nested in the artifact's writer).
void write_chaos_record(util::JsonWriter& json, const ChaosCellRecord& record);
std::string encode_chaos_record(const ChaosCellRecord& record);
util::Result<ChaosCellRecord, std::string> decode_chaos_record(
    std::string_view text);

/// Canonical cell for one chaos trial (config with the trial seed baked
/// in), the cache-key input for chaos entries.
std::string canonical_chaos_cell(const runner::ChaosTrialConfig& config);

struct CachedChaosSoak {
  std::vector<ChaosCellRecord> records;  // seed-index order
  MemoStats stats;
};

/// run_chaos_soak with memoization: trial i (seed derive_trial_seed(
/// base.seed, i)) is served from options.cache_dir when a verified entry
/// exists and simulated otherwise; fresh results are committed before
/// returning, so the next run re-simulates none of them. Records are
/// bit-identical to an uncached soak's projections for any jobs value.
CachedChaosSoak run_cached_chaos_soak(const runner::ChaosTrialConfig& base,
                                      unsigned seeds,
                                      const MemoOptions& options);

}  // namespace retri::serve
