// retri_chaos: the chaos soak CLI.
//
// Runs N independent runner::run_chaos_trial trials (each with its own
// random_plan-derived hostile channel and churn schedule), audits every
// trial's conservation invariants, and reports per-seed outcomes. The soak
// is the robustness gate for the AFF stack: exit status 1 means some seed
// produced an invariant violation and the fingerprint printed for that
// seed reproduces it exactly (`retri_chaos --seeds 1 --seed <trial_seed>`
// replays a single trial, since trial 0's derived seed is the base seed's
// first derivation — use the printed trial_seed with --raw-seed instead).
//
// --cache DIR gives the soak a memo store (ChaosSoakOptions::cache_dir): a
// re-run serves the seeds earlier runs simulated from disk and only
// simulates the remainder. Cached records are fingerprint-verified on every
// hit; output is bit-identical to an uncached soak. A directory that cannot
// be created or written exits 2 before any trial runs.
//
// Determinism contract: output and JSON artifact are pure functions of
// (--seeds, --seconds, --senders, --bits, --seed); --jobs only shards
// work and --cache only skips it. scripts/check.sh diffs --jobs 1 vs
// --jobs 8 artifacts.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "runner/chaos.hpp"
#include "runner/seeds.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/parse_number.hpp"

namespace {

struct Args {
  unsigned seeds = 50;
  unsigned jobs = 1;
  double seconds = 5.0;    // send_duration per trial
  std::size_t senders = 4;
  unsigned bits = 6;
  std::uint64_t seed = 1;  // base seed; trial i uses derive_trial_seed
  bool raw_seed = false;   // treat --seed as trial 0's exact seed
  std::string out;         // JSON artifact path; empty = no export
  std::string cache;       // memo-table directory; empty = no memoization
  bool verbose = false;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: retri_chaos [--seeds N] [--jobs N] [--seconds S]\n"
               "                   [--senders N] [--bits B] [--seed X]\n"
               "                   [--raw-seed] [--out FILE] [--cache DIR]\n"
               "                   [--verbose]\n"
               "\n"
               "Runs N seeded chaos trials against the AFF stack and checks\n"
               "conservation invariants. Exit 0: all trials clean; 1: some\n"
               "trial violated an invariant; 2: bad arguments or I/O error.\n"
               "--raw-seed runs trial 0 with --seed verbatim (replay a\n"
               "trial_seed printed by a previous soak). --cache DIR serves\n"
               "seeds that earlier runs simulated from an on-disk memo\n"
               "table instead of simulating them again.\n");
}

// Upper bound on --seeds and --jobs, so a typo cannot allocate millions of
// trial slots or threads.
constexpr unsigned kMaxCount = 1u << 20;

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
    } else if (flag == "--seeds") {
      ok = retri::util::parse_int(next(), args.seeds) && args.seeds >= 1 &&
           args.seeds <= kMaxCount;
    } else if (flag == "--jobs") {
      ok = retri::util::parse_int(next(), args.jobs) && args.jobs >= 1 &&
           args.jobs <= kMaxCount;
    } else if (flag == "--seconds") {
      ok = retri::util::parse_double(next(), args.seconds) &&
           retri::sim::Duration::fits_positive_seconds(args.seconds);
    } else if (flag == "--senders") {
      ok = retri::util::parse_int(next(), args.senders) && args.senders >= 1 &&
           args.senders <= 64;
    } else if (flag == "--bits") {
      ok = retri::util::parse_int(next(), args.bits) && args.bits >= 1 &&
           args.bits <= 16;
    } else if (flag == "--seed") {
      ok = retri::util::parse_int(next(), args.seed);
    } else if (flag == "--raw-seed") {
      args.raw_seed = true;
    } else if (flag == "--out") {
      args.out = next();
      ok = !args.out.empty();
    } else if (flag == "--cache") {
      args.cache = next();
      ok = !args.cache.empty();
    } else if (flag == "--verbose" || flag == "-v") {
      args.verbose = true;
    } else {
      std::fprintf(stderr, "retri_chaos: unknown flag '%s'\n", flag.c_str());
      usage(stderr);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "retri_chaos: bad or missing value for %s\n",
                   flag.c_str());
      return 2;
    }
  }
  if (args.raw_seed && !args.cache.empty()) {
    // Replay mode exists to re-run one suspect seed from scratch; serving
    // it from the memo table would defeat the point.
    std::fprintf(stderr, "retri_chaos: --raw-seed and --cache are mutually "
                         "exclusive (replays must re-simulate)\n");
    return 2;
  }
  return 0;
}

std::string soak_json(
    const Args& args,
    const std::vector<retri::runner::ChaosCellRecord>& records) {
  retri::util::JsonWriter json(/*pretty=*/true);
  json.begin_object();
  json.member("schema", "retri.chaos-soak");
  json.member("schema_version", 2);

  json.key("config").begin_object();
  json.member("seeds", args.seeds);
  json.member("seconds", args.seconds);
  json.member("senders", args.senders);
  json.member("id_bits", args.bits);
  json.member("base_seed", args.seed);
  json.member("raw_seed", args.raw_seed);
  json.end_object();

  unsigned clean = 0;
  for (const auto& record : records) clean += record.clean() ? 1u : 0u;
  json.member("clean_trials", clean);
  json.member("total_trials", records.size());

  // Each trial is its seed plus the memo store's own record encoding.
  json.key("trials").begin_array();
  for (std::size_t i = 0; i < records.size(); ++i) {
    json.begin_object();
    json.member("trial_seed",
                args.raw_seed && i == 0
                    ? args.seed
                    : retri::runner::derive_trial_seed(args.seed, i));
    json.key("record");
    retri::runner::write_chaos_record(json, records[i]);
    json.end_object();
  }
  json.end_array();

  json.end_object();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const int bad = parse_args(argc, argv, args)) return bad;

  retri::runner::ChaosTrialConfig base;
  base.senders = args.senders;
  base.id_bits = args.bits;
  base.send_duration = retri::sim::Duration::from_seconds(args.seconds);
  base.seed = args.seed;

  std::vector<retri::runner::ChaosCellRecord> records;
  if (args.raw_seed) {
    // Replay mode: run --seed verbatim as a single trial (no derivation),
    // so a trial_seed printed by a soak reproduces that exact trial.
    records.push_back(
        retri::runner::project(retri::runner::run_chaos_trial(base)));
  } else {
    retri::runner::ChaosSoakOptions options;
    options.seeds = args.seeds;
    options.jobs = args.jobs;
    options.cache_dir = args.cache;
    retri::runner::ChaosSoakResult soak;
    try {
      soak = retri::runner::run_chaos_soak(base, options);
    } catch (const std::system_error& e) {
      // The store's directory is unusable: raised before any trial runs.
      std::fprintf(stderr, "retri_chaos: %s\n", e.what());
      return 2;
    }
    records = std::move(soak.records);
    if (!args.cache.empty()) {
      std::printf("cache %s: %llu hits, %llu simulated\n", args.cache.c_str(),
                  static_cast<unsigned long long>(soak.memo.hits),
                  static_cast<unsigned long long>(soak.memo.simulated));
    }
  }

  unsigned clean = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    const std::uint64_t trial_seed =
        args.raw_seed ? args.seed
                      : retri::runner::derive_trial_seed(args.seed, i);
    if (record.clean()) ++clean;
    std::printf("trial %3zu seed=%llu %s | offered=%llu aff=%llu truth=%llu "
                "crashes=%llu plan=[%s]\n",
                i, static_cast<unsigned long long>(trial_seed),
                record.clean() ? "clean " : "DIRTY ",
                static_cast<unsigned long long>(record.packets_offered),
                static_cast<unsigned long long>(record.aff_delivered),
                static_cast<unsigned long long>(record.truth_delivered),
                static_cast<unsigned long long>(record.crashes),
                record.plan.c_str());
    for (const std::string& violation : record.violations) {
      std::printf("        violation: %s\n", violation.c_str());
    }
    if (args.verbose) {
      std::printf("        %s\n", record.fingerprint.c_str());
    }
  }
  std::printf("chaos soak: %u/%zu trials clean\n", clean, records.size());

  if (!args.out.empty()) {
    std::string error;
    if (!retri::obs::write_text_file(args.out, soak_json(args, records),
                                     &error)) {
      std::fprintf(stderr, "retri_chaos: %s\n", error.c_str());
      return 2;
    }
    std::printf("wrote %s\n", args.out.c_str());
  }

  return clean == records.size() ? 0 : 1;
}
