#include "serve/memo.hpp"

#include <iterator>

#include "runner/codec.hpp"
#include "runner/seeds.hpp"
#include "runner/trial_runner.hpp"

namespace retri::serve {

namespace {

// runner::fingerprint is re-derived from every decoded hit, so a body that
// decodes cleanly but no longer describes the trial it is filed under is
// rejected.
constexpr CellCodec<runner::ExperimentResult> kSweepTrial{
    "sweep-trial", &runner::encode_result, &runner::decode_result_text,
    &runner::fingerprint};

}  // namespace

CachedSweep run_cached_sweep(const runner::SweepSpec& spec,
                             const MemoOptions& options) {
  const std::vector<runner::SweepPoint> points = spec.expand();
  const unsigned trials = spec.trials == 0 ? 1 : spec.trials;

  // Cell i is (point i / trials, trial i % trials), configured exactly as
  // SweepRunner configures it.
  std::vector<runner::ExperimentConfig> configs;
  std::vector<std::string> keys;
  configs.reserve(points.size() * trials);
  keys.reserve(points.size() * trials);
  for (const runner::SweepPoint& point : points) {
    for (unsigned t = 0; t < trials; ++t) {
      runner::ExperimentConfig config = point.config;
      config.seed = runner::derive_trial_seed(point.config.seed, t);
      keys.push_back(
          ResultCache::make_key(kCodeVersion, runner::canonical_cell(config)));
      configs.push_back(std::move(config));
    }
  }

  ResultCache cache(CacheOptions{options.cache_dir});
  std::vector<runner::ExperimentResult> cells;
  CachedSweep out;
  out.stats = memoize(
      cache, kSweepTrial, keys, options.jobs,
      [&configs](std::size_t i) { return runner::run_experiment(configs[i]); },
      cells);

  out.result.spec = spec;
  out.result.points.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    runner::SweepPointResult& point = out.result.points[p];
    point.label = points[p].label;
    point.config = points[p].config;
    const auto first = cells.begin() + static_cast<std::ptrdiff_t>(p * trials);
    point.trials.assign(std::make_move_iterator(first),
                        std::make_move_iterator(first + trials));
    point.summary = runner::TrialRunner::summarize(point.trials);
  }
  return out;
}

}  // namespace retri::serve
