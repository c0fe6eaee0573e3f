// The reproduction gate: every named sweep that has claims runs at the
// registry defaults (10 trials x 30 s, seed 1, five senders — what
// `retri_bench --sweep NAME` runs with no other flag, and what
// EXPERIMENTS.md reports), and every claim over it must hold. A failure
// prints each comparison that failed.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/claims.hpp"
#include "runner/sweep.hpp"

namespace runner = retri::runner;

namespace {

std::vector<std::string> claimed_sweeps() {
  std::vector<std::string> names;
  for (const runner::Claim& claim : runner::claims()) {
    if (std::find(names.begin(), names.end(), claim.sweep) == names.end()) {
      names.emplace_back(claim.sweep);
    }
  }
  return names;
}

std::string failed_checks(const runner::ClaimOutcome& outcome) {
  std::ostringstream out;
  for (const runner::ClaimCheck& check : outcome.checks) {
    if (check.holds()) continue;
    out << "\n  at " << check.at << ": measured " << check.measured
        << ", bound " << check.bound;
  }
  return out.str();
}

class Repro : public ::testing::TestWithParam<std::string> {};

TEST_P(Repro, ClaimsHoldAtRegistryDefaults) {
  auto spec = runner::make_named_sweep(GetParam());
  ASSERT_TRUE(spec.ok()) << spec.error();
  runner::SweepOptions options;
  options.jobs = 4;
  const runner::SweepResult result = runner::SweepRunner(options).run(spec.value());
  for (const runner::Claim& claim : runner::claims()) {
    if (claim.sweep != GetParam()) continue;
    const runner::ClaimOutcome outcome = runner::evaluate(claim, result);
    EXPECT_EQ(outcome.verdict, runner::Verdict::kHolds)
        << claim.id << " (" << claim.statement << ") "
        << runner::to_string(outcome.verdict) << failed_checks(outcome);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, Repro, ::testing::ValuesIn(claimed_sweeps()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

}  // namespace
