// Content-addressed result cache: (canonical cell, code version) → trial.
//
// The sweep grids the paper's figures run are re-simulated constantly — CI
// re-runs the same (config, seed) cells on every commit, and overlapping
// sweeps share most of their points. Every trial is a pure function of its
// canonical cell (the config JSON with the derived trial seed baked in)
// plus the code version, so its result can be memoized under
//   key = fnv1a64(code_version ‖ canonical cell JSON)
// and served without simulating. Three properties make the cache safe to
// trust:
//   1. the code version is part of the key, so a simulator change can never
//      serve a stale result — it simply misses;
//   2. every entry carries a CRC-32 over its serialized body, checked when
//      the on-disk store is loaded AND on every hit, so a corrupted or
//      hand-edited entry is detected rather than returned;
//   3. the entry stores the producer's semantic fingerprint
//      (runner::fingerprint for both kinds), which runner::memoize
//      re-derives from the decoded body on each hit — a body that decodes
//      cleanly but no longer describes the same trial is rejected too.
// Entries are bounded by a byte budget with LRU eviction (get() refreshes
// recency) and persist as one file per key under `dir`, so the next run
// reloads its memo table instead of re-simulating history.
//
// Crash safety (DESIGN.md §5i): every store write goes through
// runner::atomic_write_file — temp file, fsync, rename, directory fsync — so
// a kill at any instant leaves the old entry, the new entry, or an orphaned
// `*.tmp`. load_store() quarantines those orphans (and anything failing its
// CRC) by deletion, counted on serve.cache.quarantined; a torn entry can
// therefore never be served. The crash-point tests in test_runner_cache.cpp
// arm each point in runner::kCrashPoints and audit exactly this contract.
//
// Not thread-safe: runner::memoize keeps every cache call on its calling
// thread and only the simulations themselves on pool workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "fault/io_fault.hpp"
#include "obs/metrics.hpp"

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
  /// Directory for the persistent store; empty = memory-only (tests).
  /// Created if missing.
  std::string dir;
  /// Byte budget over the sum of entry body sizes. Inserting past it
  /// evicts least-recently-used entries; a single body larger than the
  /// budget is rejected outright.
  std::size_t byte_budget = 256u << 20;
  /// Optional fault hook for the persist path (crash points, injected
  /// ENOSPC, short writes). Null in production.
  fault::IoFaultInjector* io_faults = nullptr;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions options);

  struct Entry {
    std::string kind;         // producer tag, e.g. "sweep-trial"
    std::string fingerprint;  // semantic fingerprint at insertion time
    std::string body;         // serialized result (compact JSON)
  };

  /// CRC-verified lookup. A hit refreshes LRU recency; a body failing its
  /// stored CRC is dropped (and its file deleted) and reported as a miss.
  std::optional<Entry> get(const std::string& key);

  /// Inserts or replaces `key`, persists it (when dir is set), then evicts
  /// LRU entries until the byte budget holds.
  void put(const std::string& key, std::string kind, std::string fingerprint,
           std::string body);

  /// Removes `key` (memory + disk). Used by callers whose semantic
  /// verification of a hit failed.
  void invalidate(const std::string& key);

  std::size_t entries() const noexcept { return index_.size(); }
  std::size_t bytes() const noexcept { return bytes_; }

  /// The serve.cache.* counters (the prefix is their historical name):
  /// hit, miss, evict, corrupt, rejected, persist_fail, and quarantined —
  /// files removed from the store because they could not be trusted
  /// (orphaned `*.tmp` from crashed writes plus entries failing CRC or
  /// schema checks at load time).
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Keys are pure content addresses: hex(fnv1a64(code_version ‖ '\n' ‖
  /// canonical_cell)). The cell JSON must already embed the trial seed.
  static std::string make_key(std::string_view code_version,
                              std::string_view canonical_cell);

 private:
  struct Slot {
    std::list<std::string>::iterator lru;  // position in lru_ (front = MRU)
    Entry entry;
    std::uint32_t body_crc = 0;
  };

  void load_store();
  void persist(const std::string& key, const Slot& slot);
  void remove_file(const std::string& key) const;
  void evict_to_budget();
  /// unlink=false forgets the in-memory entry but leaves its file for the
  /// atomic rename to replace — the overwrite path must never unlink first,
  /// or a crash between unlink and rename loses the old entry.
  void drop(const std::string& key, bool unlink = true);

  CacheOptions options_;
  obs::MetricsRegistry metrics_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Slot> index_;
  std::size_t bytes_ = 0;

  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter corrupt_;
  obs::Counter rejected_;
  obs::Counter quarantined_;
  obs::Counter persist_fail_;
  obs::Gauge entries_gauge_;
  obs::Gauge bytes_gauge_;
};

}  // namespace retri::runner
