// Parallel execution of the paper's 10-trials-per-point methodology.
//
// Trials of one ExperimentConfig are independent simulations, so they shard
// across parallel_for's workers without touching the deliberately
// single-threaded sim::Simulator. Determinism survives parallelism because
// of three properties, each load-bearing:
//   1. per-trial simulators — run_experiment() owns every piece of mutable
//      simulation state, so workers share nothing;
//   2. derived seeds — trial t's seed is derive_trial_seed(base, t), a pure
//      function of the config, never of scheduling (seeds.hpp);
//   3. ordered aggregation — each trial writes results[t]; summaries are
//      folded from that vector in index order after the barrier, so
//      completion order cannot leak into means, stddevs, or CI bounds.
// Consequently jobs=1 and jobs=N produce bit-identical per-trial results.
#pragma once

#include <vector>

#include "runner/experiment.hpp"
#include "stats/summary.hpp"

namespace retri::runner {

/// Aggregates of one config's trials — the paper's mean ± stddev error bars.
struct TrialSummary {
  stats::TrialSet delivery_ratio;
  stats::TrialSet collision_loss;
  ExperimentResult last;  // representative absolute numbers (highest index)
  /// Per-trial metric snapshots folded in trial-index order (counters and
  /// histogram buckets sum, gauges keep peaks) — deterministic and
  /// jobs-invariant because the fold happens after the barrier.
  obs::MetricsSnapshot metrics_total;
};

struct TrialRunnerOptions {
  /// Worker threads; <=1 runs inline on the calling thread (no pool).
  unsigned jobs = 1;
};

class TrialRunner {
 public:
  explicit TrialRunner(TrialRunnerOptions options = {});

  /// Runs `trials` independent trials of `config`, seeding trial t with
  /// derive_trial_seed(config.seed, t). Returns per-trial results in trial
  /// order regardless of worker count or completion order.
  std::vector<ExperimentResult> run(const ExperimentConfig& config,
                                    unsigned trials) const;

  /// run() + summarize() in one call.
  TrialSummary run_summary(const ExperimentConfig& config,
                           unsigned trials) const;

  /// Folds per-trial results (in the given order) into a TrialSummary.
  static TrialSummary summarize(const std::vector<ExperimentResult>& results);

 private:
  TrialRunnerOptions options_;
};

}  // namespace retri::runner
