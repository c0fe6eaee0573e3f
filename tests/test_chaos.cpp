// Chaos harness tests: trials are clean, deterministic, and sharding-
// invariant. Labelled `chaos` (own binary) so scripts/check.sh can select
// them under sanitizers without rerunning the whole tier-1 suite.
#include "runner/chaos.hpp"

#include <gtest/gtest.h>

namespace retri {
namespace {

runner::ChaosTrialConfig quick_config(std::uint64_t seed) {
  runner::ChaosTrialConfig config;
  config.send_duration = sim::Duration::seconds(1);
  config.seed = seed;
  return config;
}

TEST(ChaosTrial, SampleSeedsRunClean) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const runner::ChaosTrialResult result =
        runner::run_chaos_trial(quick_config(seed));
    EXPECT_TRUE(result.clean()) << "seed " << seed << ":\n"
                                << runner::fingerprint(result);
    EXPECT_GT(result.packets_offered, 0u);
  }
}

TEST(ChaosTrial, SameConfigSameFingerprint) {
  const runner::ChaosTrialConfig config = quick_config(7);
  const std::string first = runner::fingerprint(runner::run_chaos_trial(config));
  const std::string second = runner::fingerprint(runner::run_chaos_trial(config));
  EXPECT_EQ(first, second);
}

TEST(ChaosTrial, DifferentSeedsDifferentPlans) {
  const auto a = runner::run_chaos_trial(quick_config(1));
  const auto b = runner::run_chaos_trial(quick_config(2));
  EXPECT_NE(runner::fingerprint(a), runner::fingerprint(b));
}

TEST(ChaosSoak, JobsDoNotChangeResults) {
  const runner::ChaosTrialConfig base = quick_config(9);
  runner::ChaosSoakOptions serial;
  serial.seeds = 6;
  serial.jobs = 1;
  runner::ChaosSoakOptions parallel = serial;
  parallel.jobs = 4;

  const auto a = runner::run_chaos_soak(base, serial).records;
  const auto b = runner::run_chaos_soak(base, parallel).records;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint) << "trial " << i;
  }
}

TEST(ChaosSoak, ZeroSeedsRunsOneTrial) {
  runner::ChaosSoakOptions options;
  options.seeds = 0;
  const auto soak = runner::run_chaos_soak(quick_config(3), options);
  EXPECT_EQ(soak.records.size(), 1u);
  EXPECT_EQ(soak.memo.simulated, 1u);
}

}  // namespace
}  // namespace retri
