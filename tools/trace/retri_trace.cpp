// retri_trace: protocol timeline capture CLI.
//
// Runs a batch of §5.1 experiment trials through the parallel TrialRunner,
// then replays one selected trial with an obs::SpanRecorder attached and
// writes the protocol timeline — transaction and reassembly spans down to
// per-frame events, plus the trial's metric snapshot — as Chrome/Perfetto
// trace_event JSON. Load the artifact in chrome://tracing or
// ui.perfetto.dev ("open with legacy importer") to see the paper's
// ephemeral-identifier lifecycle laid out per node.
//
// Determinism contract: the artifact is a pure function of the experiment
// knobs and --seed; --jobs only shards the batch (the traced replay is
// always inline), so --jobs 1 and --jobs 8 produce byte-identical output.
// scripts/check.sh diffs exactly that.
//
// Exit 0: capture clean; 1: span-stream integrity violations (double ends,
// unterminated spans, events parented to dead spans); 2: bad arguments or
// I/O error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "core/selector.hpp"
#include "obs/export.hpp"
#include "runner/observe.hpp"
#include "runner/seeds.hpp"
#include "sim/time.hpp"
#include "util/parse_number.hpp"

namespace {

struct Args {
  std::size_t senders = 3;
  unsigned bits = 8;
  std::string policy = "uniform";
  double seconds = 2.0;     // send_duration per trial
  double loss = 0.0;        // channel loss_rate
  retri::runner::Channel channel = retri::runner::Channel::kIndependent;
  unsigned trials = 1;
  unsigned jobs = 1;
  unsigned trial = 0;       // which trial's spans to capture
  std::uint64_t seed = 1;
  std::string out;          // Perfetto JSON path; empty = no export
  bool summary = false;
};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: retri_trace [--senders N] [--bits B] [--policy P]\n"
      "                   [--seconds S] [--loss R] [--channel C]\n"
      "                   [--trials N] [--jobs N] [--trial I] [--seed X]\n"
      "                   [--out FILE] [--summary]\n"
      "\n"
      "Runs N experiment trials, replays trial I with the span recorder\n"
      "attached, and exports its protocol timeline as Chrome/Perfetto\n"
      "trace_event JSON (open in chrome://tracing or ui.perfetto.dev).\n"
      "--policy is any selector from core::named_selectors() (e.g. uniform,\n"
      "listening, listening+notify, counter, hashed_counter, permutation,\n"
      "hybrid); --channel is\n"
      "independent | burst | chaos. Output is a pure function of the\n"
      "experiment knobs and --seed; --jobs only shards the batch.\n"
      "Exit 0: capture clean; 1: span-stream integrity violations;\n"
      "2: bad arguments or I/O error.\n");
}

/// Returns 0 on success, 2 on any malformed flag (printed to stderr).
int parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    // A missing value reads as empty, which every value check rejects.
    auto next = [&]() -> std::string_view {
      return i + 1 < argc ? argv[++i] : std::string_view();
    };
    bool ok = true;
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (flag == "--senders") {
      ok = retri::util::parse_int(next(), args.senders) && args.senders >= 1 &&
           args.senders <= 64;
    } else if (flag == "--bits") {
      ok = retri::util::parse_int(next(), args.bits) && args.bits >= 1 &&
           args.bits <= 16;
    } else if (flag == "--policy") {
      args.policy = next();
      ok = !args.policy.empty();
    } else if (flag == "--seconds") {
      ok = retri::util::parse_double(next(), args.seconds) &&
           retri::sim::Duration::fits_positive_seconds(args.seconds);
    } else if (flag == "--loss") {
      ok = retri::util::parse_double(next(), args.loss) && args.loss >= 0.0 &&
           args.loss < 1.0;
    } else if (flag == "--channel") {
      auto channel = retri::runner::parse_channel(next());
      if (!channel.ok()) {
        std::fprintf(stderr, "retri_trace: %s\n", channel.error().c_str());
        return 2;
      }
      args.channel = channel.value();
    } else if (flag == "--trials") {
      ok = retri::util::parse_int(next(), args.trials) && args.trials >= 1;
    } else if (flag == "--jobs") {
      ok = retri::util::parse_int(next(), args.jobs) && args.jobs >= 1;
    } else if (flag == "--trial") {
      ok = retri::util::parse_int(next(), args.trial);
    } else if (flag == "--seed") {
      ok = retri::util::parse_int(next(), args.seed);
    } else if (flag == "--out") {
      args.out = next();
      ok = !args.out.empty();
    } else if (flag == "--summary") {
      args.summary = true;
    } else {
      std::fprintf(stderr, "retri_trace: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "retri_trace: bad or missing value for %s\n",
                   flag.c_str());
      return 2;
    }
  }
  if (args.trial >= args.trials) {
    std::fprintf(stderr,
                 "retri_trace: --trial %u out of range for %u trial(s)\n",
                 args.trial, args.trials);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const int bad = parse_args(argc, argv, args)) return bad;

  retri::runner::ExperimentConfig config;
  config.senders = args.senders;
  config.id_bits = args.bits;
  {
    auto selector = retri::core::parse_selector_spec(args.policy);
    if (!selector.ok()) {
      std::fprintf(stderr, "retri_trace: %s\n", selector.error().c_str());
      return 2;
    }
    config.selector = selector.value();
    // Mirror the sweep registry's coupling: the notify selector implies
    // receiver collision notifications.
    config.collision_notifications =
        config.selector.listening.heed_notifications;
  }
  config.send_duration = retri::sim::Duration::from_seconds(args.seconds);
  config.loss_rate = args.loss;
  config.channel = args.channel;
  config.seed = args.seed;

  retri::runner::TraceCaptureOptions options;
  options.trials = args.trials;
  options.jobs = args.jobs;
  options.trial_index = args.trial;

  retri::runner::TraceCapture capture;
  try {
    capture = retri::runner::capture_trace(config, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "retri_trace: %s\n", e.what());
    return 2;
  }

  const auto& traced = capture.trials[args.trial];
  std::printf("trial %u seed=%llu | offered=%llu aff=%llu truth=%llu "
              "delivery=%.3f | spans=%zu instants=%zu\n",
              args.trial,
              static_cast<unsigned long long>(
                  retri::runner::derive_trial_seed(args.seed, args.trial)),
              static_cast<unsigned long long>(traced.packets_offered),
              static_cast<unsigned long long>(traced.aff_delivered),
              static_cast<unsigned long long>(traced.truth_delivered),
              traced.delivery_ratio(), capture.span_count,
              capture.instant_count);
  for (const std::string& violation : capture.violations) {
    std::printf("violation: %s\n", violation.c_str());
  }

  if (args.summary) {
    const auto& summary = capture.summary;
    const auto ci = summary.delivery_ratio.ci95();
    std::printf("batch: %zu trial(s), delivery %.3f [%.3f, %.3f]\n",
                capture.trials.size(), summary.delivery_ratio.mean(), ci.lo,
                ci.hi);
    for (const auto& entry : summary.metrics_total.entries) {
      if (entry.kind != retri::obs::MetricKind::kCounter) continue;
      std::printf("  %-42s %llu\n", entry.name.c_str(),
                  static_cast<unsigned long long>(entry.count));
    }
  }

  if (!args.out.empty()) {
    std::string error;
    if (!retri::obs::write_text_file(args.out, capture.perfetto_json,
                                     &error)) {
      std::fprintf(stderr, "retri_trace: %s\n", error.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu bytes, perfetto-json)\n", args.out.c_str(),
                capture.perfetto_json.size());
  }

  return capture.violations.empty() ? 0 : 1;
}
