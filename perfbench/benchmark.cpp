// End-to-end benchmark of the RETRI/AFF simulator: one workload per run,
// trials back to back through runner::run_experiment on one thread (a
// closed loop with one client). See README.md for the method.
//
//   retri_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//   retri_perfbench --self-test
//   retri_perfbench --print-digests
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Exit 0 when every check passed, 1 when an output check
// failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "runner/experiment.hpp"
#include "runner/seeds.hpp"
#include "util/alloc_hook.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using retri::runner::ExperimentResult;

// --- host-state calibration ----------------------------------------------

/// Kernel time in the fast host state on the reference machine (4-vCPU
/// Xeon VM, 2 MB L2 per core): the 10th percentile over the probes in
/// README.md. Calibrated times read as ms on that machine in that state.
constexpr double kCalibRefNs = 375e3;
/// Trial time is scaled by (reference / kernel) to this power. Replaying
/// the estimator over probe logs, 1.0 and 1.2 did equally well; see
/// README.md.
constexpr double kCalibExponent = 1.1;
/// Kernel samples (one per trial, in time order) in the running median
/// that calibrates each trial: about ±4 trials, well under the shortest
/// host-state dwell (~1 s).
constexpr std::size_t kCalibWindow = 9;

/// A heap-free kernel of two parts that slow down in the host's slow
/// state the way trials do: an open-addressing insert/erase loop over a
/// 4 MB table, which spills out of L2 like a trial's working set, and
/// lock-prefixed increments, like the allocator's locks. The table is
/// allocated once; each run moves a window of live keys forward. Heap-free
/// matters: a kernel that allocates times the program's heap state, which
/// the change under test moves.
class CalibrationKernel {
 public:
  CalibrationKernel() : table_(kSlots, 0) {
    for (next_ = 1; next_ <= kLive; ++next_) insert(next_);
  }

  /// Geometric mean of the two parts' times, in nanoseconds.
  double run() {
    double start = now_ns();
    for (std::uint64_t i = 0; i < kPairs; ++i, ++next_) {
      insert(next_);
      erase(next_ - kLive);
    }
    const double table_ns = now_ns() - start;
    start = now_ns();
    for (std::uint64_t i = 0; i < kIncrements; ++i) {
      counter_.fetch_add(i, std::memory_order_relaxed);
    }
    return std::sqrt(table_ns * (now_ns() - start));
  }

 private:
  static constexpr std::uint64_t kSlots = std::uint64_t{1} << 19;
  static constexpr std::uint64_t kMask = kSlots - 1;
  static constexpr std::uint64_t kLive = kSlots / 2;
  static constexpr std::uint64_t kPairs = 8000;
  static constexpr std::uint64_t kIncrements = 20000;

  static std::uint64_t home(std::uint64_t key) {
    key += 0x9e3779b97f4a7c15ULL;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return (key ^ (key >> 31)) & kMask;
  }
  void insert(std::uint64_t key) {
    std::uint64_t i = home(key);
    while (table_[i] != 0) i = (i + 1) & kMask;
    table_[i] = key;
  }
  /// Backward-shift deletion, so the table never fills with tombstones.
  void erase(std::uint64_t key) {
    std::uint64_t i = home(key);
    while (table_[i] != key) {
      if (table_[i] == 0) return;
      i = (i + 1) & kMask;
    }
    std::uint64_t j = i;
    for (;;) {
      table_[i] = 0;
      for (;;) {
        j = (j + 1) & kMask;
        if (table_[j] == 0) return;
        const std::uint64_t k = home(table_[j]);
        const bool stays = i < j ? (i < k && k <= j) : (i < k || k <= j);
        if (!stays) break;
      }
      table_[i] = table_[j];
      i = j;
    }
  }

  std::vector<std::uint64_t> table_;
  std::uint64_t next_ = 1;
  std::atomic<std::uint64_t> counter_{0};
};

// --- small statistics ------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// --- trials ----------------------------------------------------------------

std::vector<std::string> reference_fingerprints(const Workload& w) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < kReferenceSeeds; ++i) {
    const std::uint64_t seed =
        retri::runner::derive_trial_seed(kReferenceBaseSeed, i);
    out.push_back(retri::runner::fingerprint(
        retri::runner::run_experiment(trial_config(w, seed))));
  }
  return out;
}

/// The medium's conservation law over a trial's own snapshot.
bool medium_conserved(const ExperimentResult& r) {
  const auto& m = r.metrics;
  return m.counter("medium.deliveries_attempted") +
             m.counter("medium.fault_extra_deliveries") ==
         m.counter("medium.delivered") + m.counter("medium.lost_random") +
             m.counter("medium.lost_rf_collision") +
             m.counter("medium.lost_half_duplex") +
             m.counter("medium.lost_disabled") + m.counter("medium.lost_fault");
}

struct SeedRecord {
  std::uint64_t seed = 0;
  std::string fingerprint;
  std::string setup_fingerprint;
  std::uint64_t allocs = 0;
  double delivered = 0;
  double best_raw_ns = 0;     // min over passes, unscaled
  double best_trial_ns = 0;   // min over passes, calibrated
  double best_setup_ns = 0;   // min over passes, calibrated
};

struct Sample {
  std::size_t seed_index;
  double trial_ns;
  double setup_ns;
  double calib_ns;
};

struct TimedRun {
  std::vector<SeedRecord> seeds;
  std::vector<Sample> samples;  // time order
  std::size_t passes = 0;
  Census census;  // summed over seeds
  ExperimentResult first;  // seed 0's result, sizes the unit-cost inputs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  double calib_median_ns = 0;
};

double calib_scale(double calib_ns) {
  return std::pow(kCalibRefNs / calib_ns, kCalibExponent);
}

/// Times every seed once per pass, passes back to back while another one
/// fits in `seconds` (at least three), with a calibration kernel and
/// set-up probes beside each trial. Checks each seed's fingerprint and
/// allocation count against its first pass.
TimedRun time_trials(const Workload& w, std::uint64_t base_seed,
                     double seconds, CalibrationKernel& kernel,
                     retri::obs::SpanRecorder& spans,
                     retri::obs::SpanId parent) {
  constexpr std::size_t kMinPasses = 3;
  constexpr std::size_t kMaxPasses = 16;
  // A set-up probe is ~0.1 ms, so each sample keeps the best of a few.
  constexpr int kSetupProbes = 3;
  TimedRun run;
  run.seeds.resize(w.seeds);
  for (std::size_t i = 0; i < w.seeds; ++i) {
    run.seeds[i].seed = retri::runner::derive_trial_seed(base_seed, i);
  }
  const double start = now_ns();
  double pass_ns = 0;
  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    if (pass >= kMinPasses && now_ns() - start + pass_ns > seconds * 1e9) {
      break;
    }
    const double pass_start = now_ns();
    const retri::obs::SpanId pass_span =
        spans.begin("pass", kSpanCategory, 0, wall_now(), parent);
    for (std::size_t i = 0; i < run.seeds.size(); ++i) {
      SeedRecord& rec = run.seeds[i];
      Sample sample{i, 0, 0, kernel.run()};

      ExperimentResult setup;
      for (int probe = 0; probe < kSetupProbes; ++probe) {
        const double t0 = now_ns();
        setup = retri::runner::run_experiment(setup_config(w, rec.seed));
        const double ns = now_ns() - t0;
        sample.setup_ns = probe == 0 ? ns : std::min(sample.setup_ns, ns);
      }

      const std::uint64_t allocs_before = retri::util::alloc_count();
      const double t0 = now_ns();
      ExperimentResult result =
          retri::runner::run_experiment(trial_config(w, rec.seed));
      sample.trial_ns = now_ns() - t0;
      const std::uint64_t allocs = retri::util::alloc_count() - allocs_before;
      run.samples.push_back(sample);
      run.attempted += 2;

      std::string fp = retri::runner::fingerprint(result);
      std::string setup_fp = retri::runner::fingerprint(setup);
      if (pass == 0) {
        for (const std::string& name : add_census(result.metrics, run.census)) {
          run.problems.push_back("census counter missing: " + name);
        }
        rec.delivered =
            static_cast<double>(result.metrics.counter("medium.delivered"));
        rec.fingerprint = std::move(fp);
        rec.setup_fingerprint = std::move(setup_fp);
        rec.allocs = allocs;
        if (!medium_conserved(result)) {
          ++run.failed;
          run.problems.push_back("medium conservation law broken at seed " +
                                 std::to_string(rec.seed));
        }
        if (i == 0) run.first = std::move(result);
        continue;
      }
      if (fp != rec.fingerprint || allocs != rec.allocs) {
        ++run.failed;
        run.problems.push_back("seed " + std::to_string(rec.seed) + " pass " +
                               std::to_string(pass) +
                               ": fingerprint or allocation count changed");
      }
      if (setup_fp != rec.setup_fingerprint) {
        ++run.failed;
        run.problems.push_back("set-up probe changed at seed " +
                               std::to_string(rec.seed));
      }
    }
    spans.end(pass_span, wall_now(), "done");
    ++run.passes;
    pass_ns = now_ns() - pass_start;
  }

  // Calibrate each sample with the running median of the kernel times
  // around it, then keep each seed's best pass.
  std::vector<double> calib;
  for (const Sample& s : run.samples) calib.push_back(s.calib_ns);
  run.calib_median_ns = median(calib);
  for (std::size_t k = 0; k < run.samples.size(); ++k) {
    const std::size_t lo = k >= kCalibWindow / 2 ? k - kCalibWindow / 2 : 0;
    const std::size_t hi = std::min(calib.size(), k + kCalibWindow / 2 + 1);
    const double scale = calib_scale(median(
        std::vector<double>(calib.begin() + static_cast<std::ptrdiff_t>(lo),
                            calib.begin() + static_cast<std::ptrdiff_t>(hi))));
    const Sample& s = run.samples[k];
    SeedRecord& rec = run.seeds[s.seed_index];
    const bool first = k < run.seeds.size();
    const auto best = [first](double& slot, double v) {
      slot = first ? v : std::min(slot, v);
    };
    best(rec.best_raw_ns, s.trial_ns);
    best(rec.best_trial_ns, s.trial_ns * scale);
    best(rec.best_setup_ns, s.setup_ns * scale);
  }
  return run;
}

// --- the two kinds of run ---------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::vector<Metric> end_to_end(const TimedRun& run, double rss_mb,
                               std::uint64_t attempted, std::uint64_t failed) {
  std::vector<double> trial, setup, raw, ns_per_delivery;
  double allocs = 0;
  double delivered = 0;
  for (const SeedRecord& rec : run.seeds) {
    trial.push_back(rec.best_trial_ns);
    setup.push_back(rec.best_setup_ns);
    raw.push_back(rec.best_raw_ns);
    ns_per_delivery.push_back(rec.best_trial_ns / rec.delivered);
    allocs += static_cast<double>(rec.allocs);
    delivered += rec.delivered;
  }
  std::vector<double> sorted = trial;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t tail_index = n > 10 ? n - 11 : n - 1;
  std::printf("  seeds=%zu passes=%zu tail=p%.1f (%zu seeds beyond)\n", n,
              run.passes, 100.0 * static_cast<double>(tail_index + 1) /
                              static_cast<double>(n),
              n - tail_index - 1);
  std::printf("  host.calib_ms=%s host.raw_trial_ms.p50=%s fail_ratio=%s\n",
              fmt(run.calib_median_ns / 1e6).c_str(),
              fmt(median(raw) / 1e6).c_str(),
              fmt(static_cast<double>(failed) / static_cast<double>(attempted))
                  .c_str());
  return {
      {"trial_ms.p50", median(trial) / 1e6, "ms"},
      {"trial_ms.tail", sorted[tail_index] / 1e6, "ms"},
      // A median over seeds, like the trial times: a seed whose every
      // pass hit the slow host state moves a mean but not a median.
      {"ns_per_delivery", median(ns_per_delivery), "ns"},
      {"allocs_per_delivery", allocs / delivered, "allocs"},
      {"setup_s", median(setup) / 1e9, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"verified_ratio",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "ratio"},
  };
}

/// Annotates every span with self_ns: its duration minus the part its
/// direct children cover.
void annotate_self_time(retri::obs::SpanRecorder& spans) {
  const std::vector<retri::obs::Span>& all = spans.spans();
  std::vector<std::int64_t> self;
  for (const retri::obs::Span& s : all) self.push_back((s.end - s.start).ns());
  for (const retri::obs::Span& s : all) {
    if (s.parent.valid()) self[s.parent.index - 1] -= (s.end - s.start).ns();
  }
  for (std::uint32_t i = 0; i < self.size(); ++i) {
    const std::int64_t ns = std::max<std::int64_t>(0, self[i]);
    spans.annotate(retri::obs::SpanId{i + 1}, "self_ns",
                   static_cast<std::uint64_t>(ns));
  }
}

struct TracedRun {
  double overhead = 0;
  double spans = 0;     // per trial
  double instants = 0;  // per trial
  double peak_rss_mb = 0;
  std::uint64_t failed = 0;
};

/// Replays the first kTracedSeeds seeds with an obs::SpanRecorder, one
/// recorder alive at a time, and compares each against its untraced best.
TracedRun traced_run(const Workload& w, const TimedRun& run,
                     CalibrationKernel& kernel,
                     retri::obs::SpanRecorder& spans,
                     retri::obs::SpanId parent) {
  TracedRun out;
  std::vector<double> overheads;
  const std::size_t n = std::min(kTracedSeeds, run.seeds.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SeedRecord& rec = run.seeds[i];
    const retri::obs::SpanId span =
        spans.begin("traced_trial", kSpanCategory, 0, wall_now(), parent);
    const double scale = calib_scale(kernel.run());
    retri::obs::SpanRecorder recorder;
    const double t0 = now_ns();
    const ExperimentResult result =
        retri::runner::run_experiment(trial_config(w, rec.seed), &recorder);
    const double ns = now_ns() - t0;
    overheads.push_back(ns * scale / rec.best_trial_ns);
    out.spans += static_cast<double>(recorder.spans().size());
    out.instants += static_cast<double>(recorder.instants().size());
    if (retri::runner::fingerprint(result) != rec.fingerprint) ++out.failed;
    spans.annotate(span, "seed_index", i);
    spans.annotate(span, "trial_ns", static_cast<std::uint64_t>(ns));
    spans.end(span, wall_now(), "done");
  }
  out.overhead = median(overheads);
  out.spans /= static_cast<double>(n);
  out.instants /= static_cast<double>(n);
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

/// `unit_scale` is the calibration factor of the host state the unit costs
/// were timed in.
std::vector<Metric> per_layer(const TimedRun& run, const TracedRun& traced,
                              const UnitCosts& u, double unit_scale) {
  const double trials = static_cast<double>(run.seeds.size());
  const auto per_trial = [&](std::string_view counter) {
    return run.census.find(counter)->second / trials;
  };
  std::vector<double> raw;
  double calibrated = 0;
  for (const SeedRecord& rec : run.seeds) {
    raw.push_back(rec.best_raw_ns);
    calibrated += rec.best_trial_ns;
  }
  // The mean calibrated trial, moved into the unit costs' host state, so a
  // slow stretch during either inflates neither side of the ratio alone.
  const double trial_ns = calibrated / trials / unit_scale;

  const double rx_fragments = per_trial("aff.rx.fragments_seen");
  const double truth_fragments = per_trial("aff.truth.fragments_seen");
  const double packets = per_trial("aff.packets_sent");
  const double frames = per_trial("medium.frames_sent");
  const double attempted = per_trial("medium.deliveries_attempted") +
                           per_trial("medium.fault_extra_deliveries");
  const double deliveries = per_trial("medium.delivered");
  const double rx_closed =
      per_trial("aff.rx.delivered") + per_trial("aff.rx.checksum_failed") +
      per_trial("aff.rx.timeouts") + per_trial("aff.rx.evicted");
  const double crc_calls =
      packets + per_trial("aff.rx.delivered") +
      per_trial("aff.truth.delivered") + per_trial("aff.rx.checksum_failed") +
      per_trial("aff.truth.checksum_failed");
  const double selects = per_trial("selector.selects");
  const double observes = per_trial("selector.observes");
  const double intercepts = per_trial("fault.intercepted");
  const double truth_delivered =
      static_cast<double>(run.first.truth_delivered);

  // Self costs: each unit cost net of the crc32 calls nested in it.
  const double reasm_self =
      u.reassemble.ns - u.reassemble_crc_per_op * u.crc32.ns;
  const double fragment_self = u.fragment.ns - u.crc32.ns;
  const double attr_aff =
      ((rx_fragments + truth_fragments) * reasm_self +
       rx_fragments * u.decode.ns + packets * fragment_self) /
      trial_ns;
  const double attr_util = crc_calls * u.crc32.ns / trial_ns;
  const double attr_sim = frames * u.transmit.ns / trial_ns;
  const double attr_radio = frames * u.radio_frame.ns / trial_ns;
  const double attr_core =
      (selects * u.select.ns + observes * u.observe.ns) / trial_ns;
  const double attr_fault = intercepts * u.intercept.ns / trial_ns;
  const double attr_obs = u.snapshot_us * 1e3 / trial_ns;

  return {
      {"aff.rx.fragments", rx_fragments, "count"},
      {"aff.truth.fragments", truth_fragments, "count"},
      {"aff.packets", packets, "count"},
      {"aff.reasm_ns", u.reassemble.ns, "ns"},
      {"aff.reasm_allocs", u.reassemble.allocs, "allocs"},
      {"aff.decode_ns", u.decode.ns, "ns"},
      {"aff.fragment_ns", u.fragment.ns, "ns"},
      {"aff.fragment_allocs", u.fragment.allocs, "allocs"},
      {"aff.rx.useful_ratio",
       rx_closed > 0 ? per_trial("aff.rx.delivered") / rx_closed : 0, "ratio"},
      {"aff.rx.orphan_ratio",
       rx_fragments > 0
           ? per_trial("aff.rx.orphan_fragments") / rx_fragments
           : 0,
       "ratio"},
      {"aff.delivery_ratio",
       truth_delivered > 0
           ? static_cast<double>(run.first.aff_delivered) / truth_delivered
           : 0,
       "ratio"},
      {"util.crc_calls", crc_calls, "count"},
      {"util.crc32_ns", u.crc32.ns, "ns"},
      {"sim.frames", frames, "count"},
      {"sim.fanout",
       frames > 0 ? per_trial("medium.deliveries_attempted") / frames : 0,
       "count"},
      {"sim.deliveries", deliveries, "count"},
      {"sim.lost_share",
       attempted > 0 ? (attempted - deliveries) / attempted : 0, "ratio"},
      {"sim.transmit_ns", u.transmit.ns, "ns"},
      {"sim.transmit_allocs", u.transmit.allocs, "allocs"},
      {"radio.frame_ns", u.radio_frame.ns, "ns"},
      {"radio.frame_allocs", u.radio_frame.allocs, "allocs"},
      {"core.selects", selects, "count"},
      {"core.observes", observes, "count"},
      {"core.select_ns", u.select.ns, "ns"},
      {"core.observe_ns", u.observe.ns, "ns"},
      {"fault.intercepts", intercepts, "count"},
      {"fault.attacker_frames", per_trial("attacker.frames_forged"), "count"},
      {"fault.intercept_ns", u.intercept.ns, "ns"},
      {"fault.intercept_allocs", u.intercept.allocs, "allocs"},
      {"obs.metric_entries",
       static_cast<double>(run.first.metrics.entries.size()), "count"},
      {"obs.snapshot_us", u.snapshot_us, "us"},
      {"obs.trace_overhead", traced.overhead, "x"},
      {"obs.spans", traced.spans, "count"},
      {"obs.instants", traced.instants, "count"},
      {"obs.trace_peak_rss_mb", traced.peak_rss_mb, "MB"},
      {"runner.artifact_kb", u.artifact_kb, "KB"},
      {"runner.sink_us", u.sink_us, "us"},
      {"host.calib_ms", run.calib_median_ns / 1e6, "ms"},
      {"host.raw_trial_ms.p50", median(raw) / 1e6, "ms"},
      {"attr.aff", attr_aff, "share"},
      {"attr.util", attr_util, "share"},
      {"attr.sim", attr_sim, "share"},
      {"attr.radio", attr_radio, "share"},
      {"attr.core", attr_core, "share"},
      {"attr.fault", attr_fault, "share"},
      {"attr.obs", attr_obs, "share"},
      {"attr.coverage",
       attr_aff + attr_util + attr_sim + attr_radio + attr_core + attr_fault +
           attr_obs,
       "share"},
  };
}

int run_benchmark(const Workload& w, const Args& args) {
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              fmt(args.seconds).c_str(), args.trace ? 1 : 0);
  retri::obs::SpanRecorder spans;
  const auto begin = [&spans](std::string_view name) {
    return spans.begin(name, kSpanCategory, 0, wall_now());
  };
  const auto end = [&spans](retri::obs::SpanId span) {
    spans.end(span, wall_now(), "done");
  };
  CalibrationKernel kernel;
  std::uint64_t attempted = kReferenceSeeds;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  // Warm-up and the committed-output check: the reference seeds.
  const retri::obs::SpanId ref_span = begin("reference_check");
  if (digest(reference_fingerprints(w)) != w.reference_digest) {
    failed += kReferenceSeeds;
    problems.emplace_back("reference digest differs from the committed one");
  }
  end(ref_span);

  const retri::obs::SpanId timed_span = begin("timed_passes");
  TimedRun run = time_trials(w, args.seed, args.seconds, kernel, spans,
                             timed_span);
  end(timed_span);
  attempted += run.attempted;
  failed += run.failed;
  problems.insert(problems.end(), run.problems.begin(), run.problems.end());
  // Peak RSS of the untraced passes, read before anything traced runs.
  const double rss_mb = peak_rss_mb();

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(run, rss_mb, attempted, failed);
  } else {
    const retri::obs::SpanId traced_span = begin("traced_run");
    const TracedRun traced = traced_run(w, run, kernel, spans, traced_span);
    end(traced_span);
    attempted += std::min(kTracedSeeds, run.seeds.size());
    failed += traced.failed;
    if (traced.failed > 0) {
      problems.emplace_back("tracing changed a fingerprint");
    }

    const retri::obs::SpanId unit_span = begin("unit_costs");
    std::vector<double> kernel_ns;
    for (int i = 0; i < 5; ++i) kernel_ns.push_back(kernel.run());
    const double unit_scale = calib_scale(median(kernel_ns));
    const UnitCosts units = measure_unit_costs(w, run.first, spans, unit_span);
    end(unit_span);
    metrics = per_layer(run, traced, units, unit_scale);

    if (!args.trace_out.empty()) {
      annotate_self_time(spans);
      std::string error;
      if (retri::obs::export_to_file(retri::obs::PerfettoExporter(spans),
                                     args.trace_out, &error)) {
        std::printf("  spans written to %s\n", args.trace_out.c_str());
      } else {
        problems.push_back(error);
      }
    }
  }
  for (const std::string& p : problems) std::printf("  FAIL %s\n", p.c_str());
  const bool correct = failed == 0 && problems.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// --- self-test ---------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const Workload& w : workloads()) {
    bool valid = true;
    try {
      retri::runner::validated(trial_config(w, 1));
      retri::runner::validated(setup_config(w, 1));
    } catch (const std::exception&) {
      valid = false;
    }
    check(valid, w.name + ": trial and set-up configs pass runner::validated");

    auto short_config = trial_config(w, 1);
    short_config.send_duration = retri::sim::Duration::seconds(1);
    short_config.drain_extra = retri::sim::Duration::seconds(1);
    const ExperimentResult r = retri::runner::run_experiment(short_config);
    Census census;
    check(add_census(r.metrics, census).empty(),
          w.name + ": every census counter is in the snapshot");
    check(census["medium.deliveries_attempted"] ==
              static_cast<double>(r.frames_attempted),
          w.name + ": census deliveries_attempted == frames_attempted");
    check(r.metrics.counter("n0.aff.packets_delivered") == r.aff_delivered,
          w.name + ": n0.aff.packets_delivered == aff_delivered");
    check(medium_conserved(r), w.name + ": medium conservation law holds");

    retri::obs::MetricsSnapshot pruned = r.metrics;
    std::erase_if(pruned.entries, [](const retri::obs::MetricValue& e) {
      return e.name == "medium.delivered";
    });
    Census unused;
    const auto missing = add_census(pruned, unused);
    check(missing.size() == 1 && missing.front() == "medium.delivered",
          w.name + ": a removed census counter is reported missing");

    std::vector<std::string> fps = reference_fingerprints(w);
    check(digest(fps) == w.reference_digest,
          w.name + ": reference seeds reproduce the committed digest");
    fps.front().back() ^= 1;
    check(digest(fps) != w.reference_digest,
          w.name + ": a perturbed fingerprint changes the digest");
  }
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "retri_perfbench: %s\nusage: retri_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       retri_perfbench --self-test | --print-digests\n"
               "workloads:",
               why);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--self-test") return self_test();
    if (flag == "--print-digests") {
      for (const Workload& w : workloads()) {
        std::printf("%s 0x%016llxULL\n", w.name.c_str(),
                    static_cast<unsigned long long>(
                        digest(reference_fingerprints(w))));
      }
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage("unknown flag");
    }
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) return usage("unknown or missing --workload");
  return run_benchmark(*w, args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
