// Ablation: independent vs. Gilbert–Elliott burst loss at equal average
// rates.
//
// The paper evaluates AFF over an ideal channel (Figure 4's losses are
// all identifier collisions). Real sensor channels lose frames — and lose
// them in bursts. This ablation fixes the *average* per-delivery frame
// loss and toggles how it is realized: "independent" draws each loss
// i.i.d.; "burst" runs a Gilbert–Elliott two-state plan with the same
// stationary rate but mean burst length ~5. Because a multi-frame packet
// dies if ANY of its frames dies, correlated losses concentrate damage on
// fewer packets: at equal frame loss, burst channels deliver MORE packets
// than independent ones. The table reports the measured frame loss (which
// must track the configured target for both channels — that's the
// stationary-rate calibration check) and the ground-truth packet delivery
// fraction under each channel.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "harness.hpp"
#include "runner/trial_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using retri::runner::Channel;
using retri::runner::ExperimentConfig;
using retri::runner::ExperimentResult;
using retri::runner::TrialRunner;
using retri::runner::TrialRunnerOptions;
using retri::stats::Table;
using retri::stats::TrialSet;
using retri::stats::fmt;

namespace {

struct ChannelOutcome {
  TrialSet frame_loss;      // per-trial observed_frame_loss()
  TrialSet truth_delivery;  // per-trial truth_delivered / packets_offered
};

ChannelOutcome run(Channel channel, double loss_rate,
                   const retri::bench::BenchArgs& args) {
  ExperimentConfig config;
  config.senders = args.senders;
  // Wide identifier space: keep collision losses negligible so the table
  // isolates channel-induced packet loss.
  config.id_bits = 12;
  config.channel = channel;
  config.loss_rate = loss_rate;
  config.send_duration = retri::sim::Duration::from_seconds(args.seconds);
  config.seed = args.seed + static_cast<std::uint64_t>(loss_rate * 1000.0);

  TrialRunnerOptions options;
  options.jobs = args.jobs;
  const TrialRunner runner(options);

  ChannelOutcome outcome;
  for (const ExperimentResult& trial : runner.run(config, args.trials)) {
    outcome.frame_loss.add(trial.observed_frame_loss());
    outcome.truth_delivery.add(
        trial.packets_offered == 0
            ? 0.0
            : static_cast<double>(trial.truth_delivered) /
                  static_cast<double>(trial.packets_offered));
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_out = retri::bench::require_no_out(args, stderr)) {
    return bad_out;
  }

  std::printf(
      "Ablation: burst vs independent frame loss at equal average rates\n"
      "(%zu senders, %u trials, mean burst length ~5)\n\n",
      args.senders, args.trials);

  Table table({"target loss", "iid measured", "burst measured",
               "iid truth delivery", "burst truth delivery"});

  const double targets[] = {0.05, 0.15, 0.30};
  bool calibrated = true;
  bool burst_helps_packets = true;
  for (const double target : targets) {
    const ChannelOutcome iid = run(Channel::kIndependent, target, args);
    const ChannelOutcome burst = run(Channel::kBurst, target, args);

    table.row({fmt(target, 2), fmt(iid.frame_loss.mean()),
               fmt(burst.frame_loss.mean()), fmt(iid.truth_delivery.mean()),
               fmt(burst.truth_delivery.mean())});

    // Calibration: both channels must realize the configured average
    // frame-loss rate (stationary Gilbert–Elliott rate solved correctly).
    calibrated = calibrated &&
                 std::abs(iid.frame_loss.mean() - target) < 0.05 &&
                 std::abs(burst.frame_loss.mean() - target) < 0.05;

    // Shape: at equal frame loss, bursts concentrate damage on fewer
    // packets, so burst packet delivery is >= independent (small slack
    // for trial noise at the low-loss point).
    if (target >= 0.15) {
      burst_helps_packets =
          burst_helps_packets &&
          burst.truth_delivery.mean() >= iid.truth_delivery.mean() - 0.02;
    }
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  std::printf("\nshape check: measured loss tracks target (both channels): %s\n",
              calibrated ? "yes" : "NO (mismatch!)");
  std::printf("shape check: burst >= iid packet delivery at equal loss:   %s\n",
              burst_helps_packets ? "yes (bursts concentrate damage)"
                                  : "NO (mismatch!)");
  return (calibrated && burst_helps_packets) ? 0 : 1;
}
