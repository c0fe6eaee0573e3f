// The benchmark's workloads: which experiment each one runs, how many
// seeds a run times, and the committed digest its reference seeds must
// reproduce. README.md explains why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  retri::runner::ExperimentConfig config;  // seed is set per trial
  /// Seeds one run times, derived from --seed with derive_trial_seed.
  std::size_t seeds = 0;
  /// fnv1a64 of the reference seeds' fingerprints (see digest()).
  std::uint64_t reference_digest = 0;
};

/// Base seed and count of the reference seed list every run re-checks
/// against the committed digest, whatever --seed it was given.
inline constexpr std::uint64_t kReferenceBaseSeed = 0;
inline constexpr std::size_t kReferenceSeeds = 8;
/// Seeds the traced run replays, one recorder alive at a time: a traced
/// trial holds ~40 MB of spans.
inline constexpr std::size_t kTracedSeeds = 3;

const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);

/// The workload's config with seed `seed` set.
retri::runner::ExperimentConfig trial_config(const Workload& w,
                                             std::uint64_t seed);
/// The set-up probe: the same stack with a 1 ns send window and no drain,
/// so its time is construction, metric registration, snapshot and
/// teardown.
retri::runner::ExperimentConfig setup_config(const Workload& w,
                                             std::uint64_t seed);

/// fnv1a64 over the fingerprints, each followed by '\n'.
std::uint64_t digest(const std::vector<std::string>& fingerprints);

}  // namespace perfbench
