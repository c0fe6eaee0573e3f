// In-process memoization: trial cells served from a ResultCache store.
//
// A trial is a pure function of its canonical cell (its config with the
// trial seed baked in) plus kCodeVersion, so a sweep or chaos soak that is
// re-run — CI on every commit, the paper's ten trials per identifier width,
// a sweep grown by more trials — need only simulate the cells its store has
// never seen. memoize() is the one path every cached producer takes
// (run_cached_sweep below, serve::run_cached_chaos_soak), in three steps:
//   1. probe: every key is looked up on the calling thread. A hit is
//      trusted only when its kind matches, its body decodes, and the
//      fingerprint re-derived from the decoded record equals the label
//      the entry was stored under. Anything less is invalidated and
//      re-simulated, never served;
//   2. simulate: the misses run through runner::parallel_for, each into
//      its own slot, so the records are identical for any jobs value;
//   3. commit: fresh records are put() in cell order, on the calling
//      thread again — ResultCache is not thread-safe and never leaves it.
//      Nothing is committed before the last miss finishes, so a run killed
//      earlier leaves the store as it found it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "serve/cache.hpp"
#include "util/result.hpp"

namespace retri::serve {

struct MemoOptions {
  /// Directory of the on-disk store. Required: a memory-only memo table
  /// would memoize nothing across runs.
  std::string cache_dir;
  /// Worker threads for the cells that miss.
  unsigned jobs = 1;
};

struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  // cells simulated (and committed) this run
};

/// How one kind of record is stored: its entry kind tag, its body codec,
/// and its semantic fingerprint (re-derived from every decoded hit).
template <typename Record>
struct CellCodec {
  std::string_view kind;
  std::string (*encode)(const Record&);
  util::Result<Record, std::string> (*decode)(std::string_view body);
  std::string (*fingerprint)(const Record&);
};

/// Fills out[i] for every keys[i]: from `cache` when a verified entry
/// exists, otherwise from simulate(i), which runs on `jobs` pool workers
/// and must touch nothing shared. Fresh records are committed before
/// returning.
template <typename Record, typename Simulate>
MemoStats memoize(ResultCache& cache, const CellCodec<Record>& codec,
                  const std::vector<std::string>& keys, unsigned jobs,
                  Simulate&& simulate, std::vector<Record>& out) {
  MemoStats stats;
  out.resize(keys.size());

  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (auto entry = cache.get(keys[i])) {
      if (entry->kind == codec.kind) {
        auto decoded = codec.decode(entry->body);
        if (decoded.ok() &&
            codec.fingerprint(decoded.value()) == entry->fingerprint) {
          out[i] = std::move(decoded).value();
          ++stats.hits;
          continue;
        }
      }
      cache.invalidate(keys[i]);
    }
    missing.push_back(i);
  }

  runner::parallel_for(missing.size(), jobs, [&](std::size_t m) {
    out[missing[m]] = simulate(missing[m]);
  });

  for (const std::size_t i : missing) {
    cache.put(keys[i], std::string(codec.kind), codec.fingerprint(out[i]),
              codec.encode(out[i]));
    ++stats.misses;
  }
  return stats;
}

struct CachedSweep {
  runner::SweepResult result;
  MemoStats stats;
};

/// runner::SweepRunner::run through the memo store at options.cache_dir.
/// Cell (point p, trial t) is keyed by the canonical_cell of point p's
/// config with seed derive_trial_seed(p's seed, t), under kCodeVersion, and
/// stored as a "sweep-trial" entry — the format sweep stores have always
/// used, so existing stores stay valid. The result is bit-identical to an
/// uncached run for any jobs value, cold or warm.
CachedSweep run_cached_sweep(const runner::SweepSpec& spec,
                             const MemoOptions& options);

}  // namespace retri::serve
