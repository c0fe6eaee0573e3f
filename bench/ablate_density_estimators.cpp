// Ablation F (§8): transaction-density estimators.
//
// The listening window is "the most recent 2T transactions", so the
// quality of the T estimate sets the window size: too small and in-flight
// identifiers escape avoidance; too large and the avoid-set needlessly
// shrinks the selection pool (risking synchronized concentration). The
// paper's future work asks for "more accurate ways of estimating the
// typical transaction density T"; we compare three estimators end to end:
//
//   ewma    — concurrency at each begin, exponentially smoothed (default)
//   instant — raw active count, unsmoothed
//   peak    — max concurrency over the last 16 begins (conservative)
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "harness.hpp"
#include "stats/table.hpp"

using retri::runner::ExperimentConfig;
using retri::runner::TrialSummary;
using retri::core::DensityModelKind;
using retri::stats::Table;
using retri::stats::fmt;

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_out = retri::bench::require_no_out(args, stderr)) {
    return bad_out;
  }

  std::printf(
      "Ablation: density estimators feeding the listening window "
      "(%zu senders, %u trials x %.0f s)\n\n",
      args.senders, args.trials, args.seconds);

  const struct {
    const char* name;
    DensityModelKind kind;
  } estimators[] = {
      {"ewma (default)", DensityModelKind::kEwma},
      {"instantaneous", DensityModelKind::kInstantaneous},
      {"peak-window", DensityModelKind::kPeakWindow},
  };

  Table table({"estimator", "H=3 loss", "H=4 loss", "H=6 loss",
               "density estimate (H=4)"});

  double worst_h4 = 0.0;
  double best_h4 = 1.0;
  for (const auto& estimator : estimators) {
    std::vector<std::string> row{estimator.name};
    std::string density_cell;
    for (const unsigned bits : {3u, 4u, 6u}) {
      ExperimentConfig config;
      config.senders = args.senders;
      config.id_bits = bits;
      config.selector = retri::core::listening_selector();
      config.density_model = estimator.kind;
      config.send_duration = retri::sim::Duration::from_seconds(args.seconds);
      config.seed = args.seed + bits * 17;
      const TrialSummary summary =
          retri::bench::run_trials(config, args.trials, args.jobs);
      row.push_back(fmt(summary.collision_loss.mean()));
      if (bits == 4) {
        density_cell = fmt(summary.last.receiver_density_estimate, 2);
        worst_h4 = std::max(worst_h4, summary.collision_loss.mean());
        best_h4 = std::min(best_h4, summary.collision_loss.mean());
      }
    }
    row.push_back(density_cell);
    table.row(std::move(row));
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  const double uniform_level =
      1.0 - retri::core::model::p_success(4, static_cast<double>(args.senders));
  std::printf("\nuniform-selection (no listening) loss at H=4 for reference: %s\n",
              fmt(uniform_level).c_str());
  // Shape check: every estimator keeps listening clearly below the
  // uniform level — the heuristic is robust to the estimator choice.
  const bool all_beat_uniform = worst_h4 < uniform_level;
  std::printf("shape check: listening beats uniform under every estimator: %s\n",
              all_beat_uniform ? "yes" : "NO (mismatch!)");
  std::printf("spread between estimators at H=4: %.4f\n", worst_h4 - best_h4);
  return all_beat_uniform ? 0 : 1;
}
