// Ablation E (§3.2 + §8): duty-cycled listening, and the listening-aware
// model extension.
//
// "Some nodes may choose to minimize the time they spend listening because
// of the significant power requirements of running a radio" — which costs
// the listening heuristic its information. We sweep the senders' listening
// duty factor from 0 (deaf: pure uniform behaviour) to 1 (always on) at a
// contended identifier width and compare the observed collision loss with
// our listening-aware model p_success_listening(H, T, q), using q = the
// duty factor (the chance a peer's introduction airs while we are awake).
//
// Expected shape: loss decreases monotonically as the duty factor rises,
// from Eq. 4's uniform level toward the near-zero full-listening level,
// with the extended model tracking the trend.
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/model.hpp"
#include "harness.hpp"
#include "stats/table.hpp"

using retri::runner::ExperimentConfig;
using retri::runner::TrialSummary;
using retri::stats::Table;
using retri::stats::fmt;

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_out = retri::bench::require_no_out(args, stderr)) {
    return bad_out;
  }
  constexpr unsigned kBits = 4;

  std::printf(
      "Ablation: listening under duty-cycled receivers (H = %u bits, "
      "%zu senders, %u trials x %.0f s)\n\n",
      kBits, args.senders, args.trials, args.seconds);

  Table table({"listen duty", "observed loss", "sd", "extended model loss",
               "Eq.4 (no listening)"});

  const double t = static_cast<double>(args.senders);
  const double eq4 = 1.0 - retri::core::model::p_success(kBits, t);

  std::vector<double> losses;
  for (const double duty : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    ExperimentConfig config;
    config.senders = args.senders;
    config.id_bits = kBits;
    config.selector = retri::core::listening_selector();
    config.sender_listen_duty = duty;
    config.send_duration = retri::sim::Duration::from_seconds(args.seconds);
    config.seed = args.seed + static_cast<std::uint64_t>(duty * 1000);

    const TrialSummary summary =
        retri::bench::run_trials(config, args.trials, args.jobs);
    losses.push_back(summary.collision_loss.mean());

    const double model_loss =
        1.0 - retri::core::model::p_success_listening(kBits, t, duty);
    table.row({fmt(duty, 2), fmt(summary.collision_loss.mean()),
               fmt(summary.collision_loss.stddev()), fmt(model_loss),
               fmt(eq4)});
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  // Shape checks: deaf listening ~ Eq.4 level; loss shrinks with duty;
  // full listening far below Eq.4.
  const bool deaf_near_eq4 = losses.front() > 0.5 * eq4;
  bool decreasing = true;
  for (std::size_t i = 1; i < losses.size(); ++i) {
    if (losses[i] > losses[i - 1] + 0.05) decreasing = false;
  }
  const bool full_much_better = losses.back() < 0.5 * losses.front();
  std::printf("\nshape check: deaf senders behave like uniform (Eq.4):   %s\n",
              deaf_near_eq4 ? "yes" : "NO (mismatch!)");
  std::printf("shape check: loss decreases with listening duty factor: %s\n",
              decreasing ? "yes" : "NO (mismatch!)");
  std::printf("shape check: full listening far below uniform:          %s\n",
              full_much_better ? "yes" : "NO (mismatch!)");
  return (deaf_near_eq4 && decreasing && full_much_better) ? 0 : 1;
}
