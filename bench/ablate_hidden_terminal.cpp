// Ablation A (§3.2): how hidden terminals limit the listening heuristic.
//
// The paper warns that "two nodes that are not in range of each other might
// pick the same identifier when trying to communicate with a receiver that
// lies in between them", and proposes receiver collision notifications as a
// partial remedy. We quantify all three regimes at a contended identifier
// width: full-mesh listening (best case), hidden-terminal listening
// (degenerates toward random), and hidden-terminal listening with
// notifications (partial recovery).
#include <cstdio>
#include <iostream>

#include "core/model.hpp"
#include "harness.hpp"
#include "stats/table.hpp"

using retri::runner::ExperimentConfig;
using retri::runner::TopologyKind;
using retri::runner::TrialSummary;
using retri::stats::Table;
using retri::stats::fmt;

namespace {

TrialSummary run(unsigned bits, TopologyKind topology,
                 const retri::core::SelectorSpec& selector, bool notifications,
                 const retri::bench::BenchArgs& args) {
  ExperimentConfig config;
  config.senders = args.senders;
  config.id_bits = bits;
  config.topology = topology;
  config.selector = selector;
  config.collision_notifications = notifications;
  config.send_duration = retri::sim::Duration::from_seconds(args.seconds);
  config.seed = args.seed + bits * 777;
  return retri::bench::run_trials(config, args.trials, args.jobs);
}

}  // namespace

int main(int argc, char** argv) {
  auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_out = retri::bench::require_no_out(args, stderr)) {
    return bad_out;
  }

  std::printf(
      "Ablation: listening under hidden terminals (%zu senders, %u trials)\n\n",
      args.senders, args.trials);

  Table table({"id bits", "uniform loss", "listen mesh", "listen hidden",
               "listen hidden+notify", "model bound"});

  double mesh_total = 0.0;
  double hidden_total = 0.0;
  double notify_total = 0.0;
  double uniform_total = 0.0;

  for (unsigned bits = 2; bits <= 6; ++bits) {
    const auto uniform = run(bits, TopologyKind::kStarFullMesh,
                             retri::core::uniform_selector(), false, args);
    const auto mesh = run(bits, TopologyKind::kStarFullMesh,
                          retri::core::listening_selector(), false, args);
    const auto hidden = run(bits, TopologyKind::kHiddenTerminal,
                            retri::core::listening_selector(), false, args);
    const auto notified =
        run(bits, TopologyKind::kHiddenTerminal,
            retri::core::listening_selector(/*heed_notifications=*/true), true,
            args);
    const double bound =
        1.0 - retri::core::model::p_success(bits,
                                            static_cast<double>(args.senders));

    table.row({std::to_string(bits), fmt(uniform.collision_loss.mean()),
               fmt(mesh.collision_loss.mean()),
               fmt(hidden.collision_loss.mean()),
               fmt(notified.collision_loss.mean()), fmt(bound)});

    uniform_total += uniform.collision_loss.mean();
    mesh_total += mesh.collision_loss.mean();
    hidden_total += hidden.collision_loss.mean();
    notify_total += notified.collision_loss.mean();
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  const bool mesh_best = mesh_total <= hidden_total + 1e-9;
  const bool hidden_not_above_uniform = hidden_total <= uniform_total + 0.05;
  std::printf("\naggregate loss: uniform %.4f | listen mesh %.4f | "
              "listen hidden %.4f | hidden+notify %.4f\n",
              uniform_total, mesh_total, hidden_total, notify_total);
  std::printf("shape check: full-mesh listening beats hidden-terminal: %s\n",
              mesh_best ? "yes (matches paper)" : "NO (mismatch!)");
  std::printf("shape check: hidden-terminal listening ~ uniform:       %s\n",
              hidden_not_above_uniform ? "yes (matches paper)"
                                       : "NO (mismatch!)");
  return (mesh_best && hidden_not_above_uniform) ? 0 : 1;
}
