// Figure 4: Collision rate predicted by the model vs. observed in the
// implementation.
//
// The paper's validation experiment (§5.1), re-hosted on the simulator:
// five transmitters each stream 80-byte packets (1 intro + 4 data
// fragments over 27-byte frames) at a single receiver; ten trials per
// identifier width; every fragment carries the sender's guaranteed-unique
// packet id so the receiver can count the packets that *would* have
// arrived, isolating identifier-collision loss from everything else.
//
// Series reproduced: Eq. 4's prediction at T = 5, the random-selection
// observation, and the listening-heuristic observation, with per-trial
// standard deviations (the paper's error bars).
#include <cstdio>
#include <iostream>

#include "core/model.hpp"
#include "harness.hpp"
#include "stats/table.hpp"

namespace model = retri::core::model;
using retri::runner::ExperimentConfig;
using retri::runner::TrialSummary;
using retri::stats::Table;
using retri::stats::fmt;

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_out = retri::bench::require_no_out(args, stderr)) {
    return bad_out;
  }

  std::printf(
      "Figure 4: observed vs. predicted identifier-collision rate\n"
      "(%zu transmitters -> 1 receiver, 80-byte packets in 5 fragments,\n"
      " %u trials x %.0f simulated seconds per point; T = %zu)\n\n",
      args.senders, args.trials, args.seconds, args.senders);

  Table table({"id bits", "model loss", "random loss", "random sd",
               "listening loss", "listening sd", "packets/trial"});

  bool random_tracks_model = true;
  bool listening_no_worse_overall = true;
  double random_total = 0.0;
  double listening_total = 0.0;

  for (unsigned bits = 1; bits <= 10; ++bits) {
    ExperimentConfig config;
    config.senders = args.senders;
    config.id_bits = bits;
    config.packet_bytes = 80;
    config.send_duration = retri::sim::Duration::from_seconds(args.seconds);
    config.seed = args.seed + bits * 1000;

    config.selector = retri::core::uniform_selector();
    const TrialSummary random =
        retri::bench::run_trials(config, args.trials, args.jobs);

    config.selector = retri::core::listening_selector();
    const TrialSummary listening =
        retri::bench::run_trials(config, args.trials, args.jobs);

    const double predicted =
        1.0 - model::p_success(bits, static_cast<double>(args.senders));

    table.row({std::to_string(bits), fmt(predicted),
               fmt(random.collision_loss.mean()),
               fmt(random.collision_loss.stddev()),
               fmt(listening.collision_loss.mean()),
               fmt(listening.collision_loss.stddev()),
               std::to_string(random.last.truth_delivered)});

    // The model is an upper bound on uniform selection's collision rate in
    // the worst case; allow simulation noise plus the structural slack
    // that real overlap patterns are milder than the model's worst case.
    if (random.collision_loss.mean() > predicted + 0.12) {
      random_tracks_model = false;
    }
    random_total += random.collision_loss.mean();
    listening_total += listening.collision_loss.mean();
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  listening_no_worse_overall = listening_total <= random_total + 1e-9;
  std::printf("\nshape check: random-selection loss bounded by Eq.4 model: %s\n",
              random_tracks_model ? "yes (matches paper)" : "NO (mismatch!)");
  std::printf("shape check: listening reduces collisions overall:      %s\n",
              listening_no_worse_overall ? "yes (matches paper)"
                                         : "NO (mismatch!)");
  std::printf("aggregate loss over sweep: random %.4f, listening %.4f\n",
              random_total, listening_total);
  return (random_tracks_model && listening_no_worse_overall) ? 0 : 1;
}
