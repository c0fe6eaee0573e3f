// Self-timed hot-path micro measurements behind `retri_bench --micro`.
//
// The suite exists to produce a machine-diffable artifact: fixed operation
// counts, exact per-op heap-allocation counts via util::alloc_hook, and a
// schema-versioned JSON document (bench/BENCH_micro.json is the committed
// baseline) that scripts/bench_compare.py diffs to gate perf regressions.
// ns_per_op is host-dependent and therefore noisy across machines;
// allocs_per_op is deterministic and is the metric the check.sh --perf
// stage gates on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace retri::bench {

/// Bumped whenever the emitted JSON changes shape.
inline constexpr int kMicroSchemaVersion = 1;

struct MicroResult {
  std::string name;
  std::uint64_t ops = 0;      // operations per timed batch
  double ns_per_op = 0.0;     // best-of-reps host time (machine-dependent)
  double allocs_per_op = -1;  // exact heap allocs; -1 = hook not linked
};

/// Runs the suite: event-engine schedule+fire, schedule+cancel, the
/// mixed/skewed churn workload (the ladder queue's worst case), and
/// broadcast-medium transmit fanout at 5 and 64 listeners (with and
/// without RF collisions). Operation counts are fixed so allocation
/// numbers are reproducible.
std::vector<MicroResult> run_micro_suite();

/// Serializes results as the BENCH_micro.json document.
std::string micro_to_json(const std::vector<MicroResult>& results,
                          bool pretty = true);

}  // namespace retri::bench
