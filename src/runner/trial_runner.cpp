#include "runner/trial_runner.hpp"

#include <utility>

#include "runner/seeds.hpp"
#include "runner/thread_pool.hpp"

namespace retri::runner {

TrialRunner::TrialRunner(TrialRunnerOptions options)
    : options_(std::move(options)) {}

std::vector<ExperimentResult> TrialRunner::run(const ExperimentConfig& config,
                                               unsigned trials) const {
  std::vector<ExperimentResult> results(trials);
  parallel_for(trials, options_.jobs, [&config, &results](std::size_t t) {
    ExperimentConfig trial_config = config;
    trial_config.seed = derive_trial_seed(config.seed, t);
    results[t] = run_experiment(trial_config);
  });
  return results;
}

TrialSummary TrialRunner::run_summary(const ExperimentConfig& config,
                                      unsigned trials) const {
  return summarize(run(config, trials));
}

TrialSummary TrialRunner::summarize(
    const std::vector<ExperimentResult>& results) {
  TrialSummary summary;
  for (const ExperimentResult& result : results) {
    summary.delivery_ratio.add(result.delivery_ratio());
    summary.collision_loss.add(result.collision_loss_rate());
    obs::accumulate(summary.metrics_total, result.metrics);
    summary.last = result;
  }
  return summary;
}

}  // namespace retri::runner
