// Ablation: the selector zoo under adversarial identifier collisions.
//
// Runs the "selectors" named sweep — every id-selection policy in
// core::named_selectors() against every fault::AttackerMode across offered
// load — and renders the Eq.-4-style comparison the paper's efficiency
// analysis implies: measured AFF efficiency (useful delivered payload bits
// over payload bits on the air, the victims' side only) next to the
// analytic e_aff at the same width and density. The model assumes benign
// uniform selection, so the spread between columns is exactly what the zoo
// separates: structured selectors beat the model's collision assumption
// while an adversary invalidates it entirely.
//
// Shape checks (exit status):
//   - with no attacker, the permutation walk (zero self-collision by
//     construction) suffers no more collision loss overall than uniform;
//   - the reactive echo attacker makes uniform selection strictly no
//     better than it was unattacked.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/model.hpp"
#include "harness.hpp"
#include "obs/export.hpp"
#include "runner/sweep.hpp"
#include "stats/table.hpp"

namespace runner = retri::runner;
namespace core = retri::core;
namespace fault = retri::fault;
using retri::stats::Table;
using retri::stats::fmt;

namespace {

/// Measured Eq.-4-style efficiency over a point's trials: delivered payload
/// bits / transmitted payload bits, summed before dividing so long trials
/// weigh more (a ratio of sums, not a mean of ratios).
double measured_efficiency(const runner::SweepPointResult& point) {
  double useful_bits = 0.0;
  double air_bits = 0.0;
  for (const runner::ExperimentResult& trial : point.trials) {
    useful_bits += static_cast<double>(trial.aff_delivered) *
                   static_cast<double>(point.config.packet_bytes) * 8.0;
    air_bits += static_cast<double>(trial.tx_bits);
  }
  return air_bits <= 0.0 ? 0.0 : useful_bits / air_bits;
}

/// Sum of collision-loss means for the points matching (policy, attacker),
/// across the sender-count axis.
double total_loss(const runner::SweepResult& result,
                  core::SelectorPolicy policy, fault::AttackerMode mode) {
  double total = 0.0;
  for (const runner::SweepPointResult& point : result.points) {
    if (point.config.selector.policy == policy &&
        point.config.attacker.mode == mode) {
      total += point.summary.collision_loss.mean();
    }
  }
  return total;
}

/// The Eq.-4-style --out artifact: one compact row per (selector,
/// attacker, load) cell. A pure function of the sweep results, which are
/// themselves --jobs-invariant, so `--jobs 1` and `--jobs 8` runs must
/// write byte-identical files; scripts/check.sh checks the same property
/// on the full-detail selectors sweep artifact this file distills.
std::string comparison_json(const runner::SweepSpec& spec,
                            const runner::SweepResult& result) {
  std::string out;
  out += "{\n  \"schema\": \"retri.selector-ablation\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"id_bits\": " + std::to_string(spec.base.id_bits) + ",\n";
  out += "  \"trials\": " + std::to_string(spec.trials) + ",\n";
  out += "  \"send_seconds\": " +
         fmt(spec.base.send_duration.to_seconds(), 3) + ",\n";
  out += "  \"seed\": " + std::to_string(spec.base.seed) + ",\n";
  out += "  \"cells\": [\n";
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const runner::SweepPointResult& point = result.points[p];
    const double density = static_cast<double>(point.config.senders);
    const double model = core::model::e_aff(
        static_cast<double>(point.config.packet_bytes) * 8.0,
        point.config.id_bits, density);
    out += "    {\"selector\": \"" +
           std::string(core::describe(point.config.selector)) +
           "\", \"attacker\": \"" +
           std::string(fault::to_string(point.config.attacker.mode)) +
           "\", \"senders\": " + std::to_string(point.config.senders) +
           ", \"measured_eff\": " + fmt(measured_efficiency(point), 6) +
           ", \"model_e_aff\": " + fmt(model, 6) +
           ", \"loss_mean\": " + fmt(point.summary.collision_loss.mean(), 6) +
           ", \"loss_sd\": " + fmt(point.summary.collision_loss.stddev(), 6) +
           "}";
    out += p + 1 < result.points.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = retri::bench::parse_args(argc, argv);
  if (const int bad = retri::bench::reject_retri_bench_flags(args, stderr)) {
    return bad;
  }

  auto named = runner::make_named_sweep("selectors");
  if (!named.ok()) {
    std::fprintf(stderr, "%s\n", named.error().c_str());
    return 2;
  }
  runner::SweepSpec spec = std::move(named).value();
  spec.trials = args.trials;
  spec.base.seed = args.seed;
  spec.base.send_duration = retri::sim::Duration::from_seconds(args.seconds);

  std::printf(
      "Ablation: selector zoo x attacker mode (H=%u, %zu points x %u trials "
      "x %.0f s)\n\n",
      spec.base.id_bits, spec.point_count(), spec.trials, args.seconds);

  runner::SweepOptions options;
  options.jobs = args.jobs;
  const runner::SweepResult result = runner::SweepRunner(options).run(spec);

  Table table({"selector", "attacker", "T", "measured eff", "model e_aff",
               "loss mean", "loss sd"});
  for (const runner::SweepPointResult& point : result.points) {
    const double density = static_cast<double>(point.config.senders);
    const double model = core::model::e_aff(
        static_cast<double>(point.config.packet_bytes) * 8.0,
        point.config.id_bits, density);
    table.row({std::string(core::describe(point.config.selector)),
               std::string(fault::to_string(point.config.attacker.mode)),
               std::to_string(point.config.senders),
               fmt(measured_efficiency(point)), fmt(model),
               fmt(point.summary.collision_loss.mean()),
               fmt(point.summary.collision_loss.stddev())});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  if (!args.out.empty()) {
    std::string error;
    if (!retri::obs::write_text_file(args.out, comparison_json(spec, result),
                                     &error)) {
      std::fprintf(stderr, "ablate_selectors: %s\n", error.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", args.out.c_str());
  }

  const double uniform_quiet = total_loss(result, core::SelectorPolicy::kUniform,
                                          fault::AttackerMode::kOff);
  const double perm_quiet = total_loss(
      result, core::SelectorPolicy::kPermutation, fault::AttackerMode::kOff);
  const double uniform_echoed = total_loss(
      result, core::SelectorPolicy::kUniform, fault::AttackerMode::kEchoCollide);

  // Small slack: permutation removes SELF-collisions by construction, but
  // cross-node collisions remain stochastic, so totals can jitter.
  const bool perm_no_worse = perm_quiet <= uniform_quiet + 0.05;
  const bool echo_hurts = uniform_echoed >= uniform_quiet - 1e-9;

  std::printf("\naggregate loss (over load axis): uniform %.4f | "
              "permutation %.4f | uniform under echo %.4f\n",
              uniform_quiet, perm_quiet, uniform_echoed);
  std::printf("shape check: permutation walk no worse than uniform:  %s\n",
              perm_no_worse ? "yes" : "NO (mismatch!)");
  std::printf("shape check: echo attacker does not help its victims: %s\n",
              echo_hurts ? "yes" : "NO (mismatch!)");
  return (perm_no_worse && echo_hurts) ? 0 : 1;
}
