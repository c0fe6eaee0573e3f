// Unified sweep CLI: every figure/ablation grid through one binary.
//
//   retri_bench --list
//   retri_bench --sweep fig4 --jobs 8 --out fig4.json
//   retri_bench --sweep hidden_terminal --trials 10 --seconds 30 --csv
//
// Selects a named sweep from runner::make_named_sweep (fig1–fig4 and the
// ablation grids), runs the whole parameter grid through the parallel
// SweepRunner with per-point progress lines on stderr, prints the paper's
// mean ± stddev table per point, then the verdict of every claim over the
// sweep (runner/claims.hpp), and optionally exports the full
// schema-versioned JSON artifact (configs, per-trial metrics, aggregates)
// via runner::ResultSink. Per-trial results — and the JSON file itself —
// are bit-identical for any --jobs value.
//
// A failed claim does not change the exit status: at small --trials and
// --seconds no interval can support a claim. `ctest -L repro` checks the
// claims at the registry defaults.
//
//   retri_bench --sweep fig4 --cache .retri-cache
//
// gives the same run an on-disk memo store (SweepOptions::cache_dir):
// trials already in the store are served without simulation, the rest run
// on --jobs workers and are added to it as each finishes. The table and the
// --out artifact are byte-identical to an uncached run. A directory that
// cannot be created or written exits 2 before anything is simulated.
#include <cstdio>
#include <iostream>
#include <string>
#include <system_error>
#include <utility>

#include "harness.hpp"
#include "runner/claims.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep.hpp"
#include "stats/table.hpp"

namespace runner = retri::runner;
using retri::stats::Table;
using retri::stats::fmt;

namespace {

int list_sweeps(std::FILE* stream) {
  std::fprintf(stream, "available sweeps:\n");
  for (const std::string_view name : runner::named_sweeps()) {
    const auto spec = runner::make_named_sweep(name);
    std::fprintf(stream, "  %-20.*s %s\n", static_cast<int>(name.size()),
                 name.data(), spec.ok() ? spec.value().description.c_str() : "");
  }
  return 0;
}

/// One row per claim over the sweep, with its tightest comparison.
void print_claims(const runner::SweepResult& result, bool csv) {
  Table table({"claim", "section", "statement", "tightest at", "measured",
               "bound", "verdict"});
  bool any = false;
  for (const runner::Claim& claim : runner::claims()) {
    if (claim.sweep != result.spec.name) continue;
    any = true;
    const runner::ClaimOutcome outcome = runner::evaluate(claim, result);
    const runner::ClaimCheck* tightest = outcome.tightest();
    table.row({std::string(claim.id), std::string(claim.section),
               std::string(claim.statement), tightest ? tightest->at : "-",
               tightest ? fmt(tightest->measured) : "-",
               tightest ? fmt(tightest->bound) : "-",
               std::string(runner::to_string(outcome.verdict))});
  }
  if (!any) return;
  std::cout << '\n';
  if (csv) table.print_csv(std::cout);
  else table.print(std::cout);
}

int list_selectors(std::FILE* stream) {
  std::fprintf(stream, "available selectors:\n");
  for (const std::string_view name : retri::core::named_selectors()) {
    std::fprintf(stream, "  %.*s\n", static_cast<int>(name.size()),
                 name.data());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (args.list) return list_sweeps(stdout);
  if (args.selector == "help") return list_selectors(stdout);
  if (args.sweep.empty()) {
    std::fprintf(stderr,
                 "usage: retri_bench --sweep NAME [--jobs N] [--out FILE]\n"
                 "                   [--trials N] [--seconds S] [--senders N]\n"
                 "                   [--seed X] [--selector NAME|help]\n"
                 "                   [--csv] [--cache DIR] | --list\n\n");
    list_sweeps(stderr);
    return 2;
  }

  if (args.sweep == "help") return list_sweeps(stdout);
  auto named = runner::make_named_sweep(args.sweep);
  if (!named.ok()) {
    std::fprintf(stderr, "%s\n", named.error().c_str());
    return 2;
  }
  runner::SweepSpec spec = std::move(named).value();
  spec.trials = args.trials;
  spec.base.seed = args.seed;
  spec.base.senders = args.senders;
  spec.base.send_duration = retri::sim::Duration::from_seconds(args.seconds);
  if (!args.selector.empty()) {
    auto parsed = retri::core::parse_selector_spec(args.selector);
    if (!parsed.ok()) {
      // The error lists every registered policy (registry-lookup contract).
      std::fprintf(stderr, "%s\n", parsed.error().c_str());
      return 2;
    }
    // Pin the policy: replace both the base and any selector axis, and
    // couple notifications like SweepSpec::expand would.
    spec.base.selector = parsed.value();
    spec.selectors.clear();
    if (parsed.value().listening.heed_notifications) {
      spec.base.collision_notifications = true;
    }
  }

  std::printf("sweep %s: %s\n(%zu points x %u trials x %.0f s, %u jobs)\n\n",
              spec.name.c_str(), spec.description.c_str(), spec.point_count(),
              spec.trials, args.seconds, args.jobs);

  runner::SweepOptions options;
  options.jobs = args.jobs;
  options.cache_dir = args.cache;
  options.on_point_done = [](const runner::SweepProgress& progress) {
    std::fprintf(stderr, "[%zu/%zu] %.*s\n", progress.points_done,
                 progress.points_total,
                 static_cast<int>(progress.label.size()),
                 progress.label.data());
  };
  runner::SweepResult result;
  try {
    result = runner::SweepRunner(options).run(spec);
  } catch (const std::system_error& e) {
    // The store's directory is unusable: raised before any cell runs.
    std::fprintf(stderr, "retri_bench: %s\n", e.what());
    return 2;
  }
  if (!args.cache.empty()) {
    std::fprintf(stderr, "cache %s: %llu hits, %llu simulated\n",
                 args.cache.c_str(),
                 static_cast<unsigned long long>(result.memo.hits),
                 static_cast<unsigned long long>(result.memo.simulated));
  }

  Table table({"point", "delivery mean", "loss mean", "loss sd", "ci95 lo",
               "ci95 hi", "packets/trial"});
  for (const runner::SweepPointResult& point : result.points) {
    const auto ci = point.summary.collision_loss.ci95();
    table.row({point.label, fmt(point.summary.delivery_ratio.mean()),
               fmt(point.summary.collision_loss.mean()),
               fmt(point.summary.collision_loss.stddev()), fmt(ci.lo),
               fmt(ci.hi),
               std::to_string(point.summary.last.truth_delivered)});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);
  print_claims(result, args.csv);

  if (!args.out.empty()) {
    // Exit 2 (usage/IO error) when --out is unwritable: scripted pipelines
    // must never see a zero exit with the artifact silently missing.
    if (const int status =
            retri::bench::export_result(args.out, result, stderr)) {
      return status;
    }
    std::printf("\nwrote %s (schema v%d, %zu points)\n", args.out.c_str(),
                runner::ResultSink::kSchemaVersion, result.points.size());
  }
  return 0;
}
