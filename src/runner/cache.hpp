// The memo store: content-addressed trial results, one file per key.
//
// The sweep grids the paper's figures run are re-simulated constantly — CI
// re-runs the same (config, seed) cells on every commit, and overlapping
// sweeps share most of their points. Every trial is a pure function of its
// canonical cell (the config JSON with the derived trial seed baked in)
// plus the code version, so its result can be memoized under
//   key = fnv1a64(code_version ‖ canonical cell JSON)
// and served without simulating. Three properties make the store safe to
// trust:
//   1. the code version is part of the key, so a simulator change can never
//      serve a stale result — it simply misses;
//   2. every entry carries a CRC-32 over its serialized body, checked on
//      every read, so a corrupted or hand-edited entry is detected rather
//      than returned;
//   3. the entry stores the producer's semantic fingerprint
//      (runner::fingerprint for both kinds), which runner::memoize
//      re-derives from the decoded body on each hit — a body that decodes
//      cleanly but no longer describes the same trial is rejected too.
//
// The store is its directory: ResultCache keeps no entry in memory. get()
// reads and checks `<dir>/<key>.json` on demand and put() writes it, so
// calls for distinct keys touch distinct files and may run on different
// threads at once — runner::memoize reads and commits on its workers.
//
// Crash safety (DESIGN.md §5i): every store write goes through
// runner::atomic_write_file — temp file, fsync, rename, directory fsync — so
// a kill at any instant leaves the old entry, the new entry, or an orphaned
// `*.tmp`. Opening the store deletes those orphans, and a read deletes an
// entry that fails its checks, so a torn entry can never be served. The
// crash-point tests in test_runner_cache.cpp arm each point in
// runner::kCrashPoints and audit exactly this contract.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "fault/io_fault.hpp"

namespace retri::runner {

/// Bumped whenever run_experiment / run_chaos_trial results could change
/// for the same config — the golden-fingerprint suite is the tripwire that
/// forces the bump — or an entry body changes shape. Part of every cache
/// key, so stale entries become unreachable (a miss) instead of wrong or
/// undecodable.
/// v2: ExperimentConfig's flat policy string became a structured
/// SelectorSpec and configs gained an attacker plan, changing the
/// canonical cell encoding (nested "selector"/"attacker" objects).
/// v3: a sweep-trial body's "metrics" member became
/// obs::write_metrics_object's keyed object (was an array of
/// {name, kind, count, level, peak, bounds, buckets} entries).
/// v4: run_experiment's senders stopped running ground-truth reassembly,
/// so a sweep-trial body's "metrics" lost their n<k>.aff.truth* entries.
inline constexpr std::string_view kCodeVersion = "retri-sim-v4";

struct CacheOptions {
  /// The store's directory. Created if missing.
  std::string dir;
  /// Optional fault hook for the persist path (crash points, injected
  /// ENOSPC, short writes). Null in production.
  fault::IoFaultInjector* io_faults = nullptr;
};

class ResultCache {
 public:
  /// Opens the store: creates the directory and deletes the orphaned
  /// `*.tmp` files of writes that died before their rename. Throws
  /// std::system_error naming the directory when it cannot be created,
  /// listed or written.
  explicit ResultCache(CacheOptions options);

  struct Entry {
    std::string kind;         // producer tag, e.g. "sweep-trial"
    std::string fingerprint;  // semantic fingerprint at insertion time
    std::string body;         // serialized result (compact JSON)
  };

  /// Reads `<dir>/<key>.json`. A missing file is a miss. A file that fails
  /// its schema, its recorded key or its body CRC is deleted and is a miss
  /// too.
  std::optional<Entry> get(const std::string& key) const;

  /// Writes `<dir>/<key>.json` atomically, replacing any older entry.
  /// Best effort: a write that fails (a full disk) leaves the old entry or
  /// none, and the next run misses on the key.
  void put(const std::string& key, std::string_view kind,
           std::string_view fingerprint, std::string_view body) const;

  /// Keys are pure content addresses: hex(fnv1a64(code_version ‖ '\n' ‖
  /// canonical_cell)). The cell JSON must already embed the trial seed.
  static std::string make_key(std::string_view code_version,
                              std::string_view canonical_cell);

 private:
  std::string path_of(const std::string& key) const;

  CacheOptions options_;
};

}  // namespace retri::runner
