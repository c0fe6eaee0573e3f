// In-process memoization: the one batch path for trial cells.
//
// A trial is a pure function of its canonical cell (its config with the
// trial seed baked in) plus kCodeVersion, so a sweep or chaos soak that is
// re-run — CI on every commit, the paper's ten trials per identifier width,
// a sweep grown by more trials — need only simulate the cells its store has
// never seen. SweepRunner::run and run_chaos_soak hand every batch to
// memoize(), with or without a store, which runs it in three steps:
//   1. probe (with a store): every key is looked up on the calling thread.
//      A hit is trusted only when its kind matches, its body decodes, and
//      the fingerprint re-derived from the decoded record equals the label
//      the entry was stored under. Anything less is invalidated and
//      re-simulated, never served;
//   2. simulate: the remaining cells run through parallel_for, each into
//      its own slot, so the records are identical for any jobs value;
//   3. commit (with a store): fresh records are put() in cell order, on the
//      calling thread again — ResultCache is not thread-safe and never
//      leaves it. Nothing is committed before the last simulation
//      finishes, so a run killed earlier leaves the store as it found it.
// Without a store, no key is derived and every cell is simulated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/cache.hpp"
#include "runner/thread_pool.hpp"
#include "util/result.hpp"

namespace retri::runner {

struct MemoStats {
  std::uint64_t hits = 0;       // cells served from the store
  std::uint64_t simulated = 0;  // cells simulated (and committed to a store)
};

/// One kind of trial cell: how it is keyed, simulated, stored, and
/// verified on a hit.
template <typename Config, typename Record>
struct CellKind {
  std::string_view entry_kind;  // the store's entry kind tag
  /// Cache-key input; the config already carries its trial seed.
  std::string (*canonical_cell)(const Config&);
  Record (*simulate)(const Config&);
  std::string (*encode)(const Record&);
  util::Result<Record, std::string> (*decode)(std::string_view body);
  /// The record's semantic fingerprint, re-derived from every decoded hit.
  std::string (*fingerprint)(const Record&);
};

/// Fills out[i] for every cells[i]: from the store at `cache_dir` when a
/// verified entry exists, otherwise by kind.simulate on `jobs` pool
/// workers. An empty `cache_dir` opens no store. Fresh records are
/// committed before returning. on_cell(i), if set, runs once per cell as
/// soon as out[i] is final: on the calling thread for a hit, on a worker
/// for a simulated cell.
template <typename Config, typename Record>
MemoStats memoize(const CellKind<Config, Record>& kind,
                  const std::vector<Config>& cells,
                  const std::string& cache_dir, unsigned jobs,
                  std::vector<Record>& out,
                  const std::function<void(std::size_t)>& on_cell = {}) {
  MemoStats stats;
  out.resize(cells.size());
  std::optional<ResultCache> cache;
  if (!cache_dir.empty()) cache.emplace(CacheOptions{cache_dir});

  std::vector<std::string> keys(cache ? cells.size() : 0);
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cache) {
      keys[i] = ResultCache::make_key(kCodeVersion,
                                      kind.canonical_cell(cells[i]));
      if (auto entry = cache->get(keys[i])) {
        if (entry->kind == kind.entry_kind) {
          auto decoded = kind.decode(entry->body);
          if (decoded.ok() &&
              kind.fingerprint(decoded.value()) == entry->fingerprint) {
            out[i] = std::move(decoded).value();
            ++stats.hits;
            if (on_cell) on_cell(i);
            continue;
          }
        }
        cache->invalidate(keys[i]);
      }
    }
    missing.push_back(i);
  }

  parallel_for(missing.size(), jobs, [&](std::size_t m) {
    out[missing[m]] = kind.simulate(cells[missing[m]]);
    if (on_cell) on_cell(missing[m]);
  });
  stats.simulated = missing.size();

  if (cache) {
    for (const std::size_t i : missing) {
      cache->put(keys[i], std::string(kind.entry_kind),
                 kind.fingerprint(out[i]), kind.encode(out[i]));
    }
  }
  return stats;
}

}  // namespace retri::runner
