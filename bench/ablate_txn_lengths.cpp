// Ablation B (§4.1 limitation): non-uniform transaction lengths.
//
// The model assumes every transaction spans the same time, and the paper
// concedes "two long transactions will have different collision
// characteristics than a long transaction competing with a series of short
// transactions, even though T = 2 in both cases". We fix the sender count
// and vary the packet-length mix. Because packet size identifies the sender
// class at the receiver, loss can be attributed per class: long
// transactions in a mixed workload overlap far more than 2(T-1) short
// peers, so they lose disproportionately — the effect the single-parameter
// model cannot express.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string_view>
#include <vector>

#include "core/model.hpp"
#include "harness.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using retri::runner::ExperimentConfig;
using retri::runner::ExperimentResult;
using retri::stats::Table;
using retri::stats::TrialSet;
using retri::stats::fmt;

namespace {

struct Mix {
  const char* name;
  std::vector<std::size_t> sizes;  // cycled across senders
};

struct MixOutcome {
  TrialSet overall;
  TrialSet short_class;  // loss of the smallest size in the mix
  TrialSet long_class;   // loss of the largest size in the mix
};

MixOutcome run_mix(const Mix& mix, unsigned id_bits,
                   const retri::bench::BenchArgs& args) {
  MixOutcome outcome;
  const std::size_t smallest =
      *std::min_element(mix.sizes.begin(), mix.sizes.end());
  const std::size_t largest =
      *std::max_element(mix.sizes.begin(), mix.sizes.end());
  ExperimentConfig config;
  config.senders = args.senders;
  config.id_bits = id_bits;
  config.per_sender_packet_bytes = mix.sizes;
  config.send_duration = retri::sim::Duration::from_seconds(args.seconds);
  config.seed = args.seed + id_bits * 131;
  retri::runner::TrialRunnerOptions options;
  options.jobs = args.jobs;
  const auto results =
      retri::runner::TrialRunner(options).run(config, args.trials);
  for (const ExperimentResult& result : results) {
    outcome.overall.add(result.collision_loss_rate());
    outcome.short_class.add(result.class_loss(smallest));
    outcome.long_class.add(result.class_loss(largest));
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_out = retri::bench::require_no_out(args, stderr)) {
    return bad_out;
  }
  constexpr unsigned kBits = 4;

  const Mix mixes[] = {
      {"uniform 80B (model's case)", {80}},
      {"uniform 240B (long)", {240}},
      {"uniform 24B (short)", {24}},
      {"half 24B / half 240B", {24, 240}},
      {"one 240B + rest 24B", {240, 24, 24, 24, 24}},
  };

  std::printf(
      "Ablation: transaction-length mixes at fixed sender count %zu,\n"
      "H = %u id bits, %u trials x %.0f s. Equal-length model loss: %s\n\n",
      args.senders, kBits, args.trials, args.seconds,
      fmt(1.0 - retri::core::model::p_success(
                    kBits, static_cast<double>(args.senders)))
          .c_str());

  Table table({"mix", "overall loss", "sd", "short-class loss",
               "long-class loss"});

  TrialSet uniform_overall;
  TrialSet mixed_long;
  TrialSet mixed_short;
  for (const Mix& mix : mixes) {
    const MixOutcome outcome = run_mix(mix, kBits, args);
    table.row({mix.name, fmt(outcome.overall.mean()),
               fmt(outcome.overall.stddev()),
               fmt(outcome.short_class.mean()),
               fmt(outcome.long_class.mean())});
    if (std::string_view(mix.name) == "uniform 80B (model's case)") {
      uniform_overall = outcome.overall;
    }
    if (std::string_view(mix.name) == "one 240B + rest 24B") {
      mixed_long = outcome.long_class;
      mixed_short = outcome.short_class;
    }
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  // Shape check: in the heterogeneous mix, the long class loses much more
  // than the short class — identifier churn by short peers multiplies the
  // long transaction's exposure beyond the model's 2(T-1).
  const bool long_suffers = mixed_long.mean() > mixed_short.mean() + 0.05;
  std::printf("\nlong-class loss %.4f vs short-class loss %.4f in mixed load\n",
              mixed_long.mean(), mixed_short.mean());
  std::printf("shape check: long transactions suffer disproportionately in "
              "mixed loads: %s\n",
              long_suffers ? "yes (model limitation confirmed)"
                           : "NO (unexpected)");
  return long_suffers ? 0 : 1;
}
