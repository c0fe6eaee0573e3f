// In-process memoization: the one batch path for trial cells.
//
// A trial is a pure function of its canonical cell (its config with the
// trial seed baked in) plus kCodeVersion, so a sweep or chaos soak that is
// re-run — CI on every commit, the paper's ten trials per identifier width,
// a sweep grown by more trials — need only simulate the cells its store has
// never seen. SweepRunner::run and run_chaos_soak hand every batch to
// memoize(), with or without a store, which runs it as one parallel_for.
// The job for cell i writes only out[i]. Given a store, it derives the
// cell's key and serves the entry under it when the entry's kind matches,
// its body decodes, and the fingerprint re-derived from the decoded record
// equals the label the entry was stored under. Otherwise it simulates the
// cell and commits the record on that same worker, replacing whatever the
// key held. A run that dies keeps every cell it finished, and its re-run
// simulates only the rest. Without a store, every cell is simulated.
#pragma once

#include <algorithm>
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
/// verified entry exists, otherwise by kind.simulate, committing the record
/// to the store before the cell counts as done. An empty `cache_dir` opens
/// no store; one that cannot be used throws std::system_error before any
/// cell runs. Cells run on `jobs` workers (see parallel_for, which also
/// says what an exception does). on_cell(i), if set, runs on the worker
/// once out[i] is final.
template <typename Config, typename Record>
MemoStats memoize(const CellKind<Config, Record>& kind,
                  const std::vector<Config>& cells,
                  const std::string& cache_dir, unsigned jobs,
                  std::vector<Record>& out,
                  const std::function<void(std::size_t)>& on_cell = {}) {
  out.resize(cells.size());
  std::optional<ResultCache> store;
  if (!cache_dir.empty()) store.emplace(CacheOptions{cache_dir});

  const auto serve = [&](const std::string& key, Record& record) {
    const auto entry = store->get(key);
    if (!entry || entry->kind != kind.entry_kind) return false;
    auto decoded = kind.decode(entry->body);
    if (!decoded.ok() ||
        kind.fingerprint(decoded.value()) != entry->fingerprint) {
      return false;
    }
    record = std::move(decoded).value();
    return true;
  };

  // char, not bool: vector<bool> packs bits, and workers write concurrently.
  std::vector<char> hit(cells.size(), 0);
  parallel_for(cells.size(), jobs, [&](std::size_t i) {
    std::string key;
    if (store) {
      key = ResultCache::make_key(kCodeVersion, kind.canonical_cell(cells[i]));
      hit[i] = serve(key, out[i]);
    }
    if (!hit[i]) {
      out[i] = kind.simulate(cells[i]);
      if (store) {
        store->put(key, kind.entry_kind, kind.fingerprint(out[i]),
                   kind.encode(out[i]));
      }
    }
    if (on_cell) on_cell(i);
  });

  MemoStats stats;
  stats.hits =
      static_cast<std::uint64_t>(std::count(hit.begin(), hit.end(), 1));
  stats.simulated = cells.size() - stats.hits;
  return stats;
}

}  // namespace retri::runner
