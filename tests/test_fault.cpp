// retri::fault unit tests: plan validation, Gilbert–Elliott statistics,
// injector determinism, and the per-family stream independence the
// ablations rely on.
#include "fault/injector.hpp"
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/random.hpp"

namespace retri::fault {
namespace {

FaultPlan burst_only(double p_g2b, double p_b2g, double loss_good = 0.0,
                     double loss_bad = 1.0) {
  FaultPlan plan;
  plan.burst.p_good_to_bad = p_g2b;
  plan.burst.p_bad_to_good = p_b2g;
  plan.burst.loss_good = loss_good;
  plan.burst.loss_bad = loss_bad;
  return plan;
}

TEST(FaultPlan, ValidationRejectsBadProbabilities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  FaultPlan plan;
  plan.corrupt_prob = nan;
  EXPECT_THROW((void)validated(plan), std::invalid_argument);

  plan = FaultPlan{};
  plan.corrupt_prob = 1.5;
  EXPECT_THROW((void)validated(plan), std::invalid_argument);

  plan = FaultPlan{};
  plan.truncate_prob = -0.1;
  EXPECT_THROW((void)validated(plan), std::invalid_argument);

  plan = FaultPlan{};
  plan.burst = BurstLossConfig{nan, 0.5, 0.0, 1.0};
  EXPECT_THROW((void)validated(plan), std::invalid_argument);

  plan = FaultPlan{};
  plan.duplicate_prob = 0.5;
  plan.max_duplicates = 0;
  EXPECT_THROW((void)validated(plan), std::invalid_argument);

  plan = FaultPlan{};
  plan.max_delay = sim::Duration::milliseconds(-1);
  EXPECT_THROW((void)validated(plan), std::invalid_argument);

  // An active burst chain with no escape from the bad state would be an
  // unintended 100%-forever channel; validation requires an exit.
  plan = burst_only(0.1, 0.0);
  EXPECT_THROW((void)validated(plan), std::invalid_argument);

  EXPECT_NO_THROW((void)validated(FaultPlan{}));
  EXPECT_NO_THROW((void)validated(burst_only(0.02, 0.2)));
}

TEST(FaultPlan, StationaryLossMatchesChainAlgebra) {
  // loss_bad=1, loss_good=0: stationary loss is pi_bad = p / (p + q).
  EXPECT_NEAR(burst_only(0.02, 0.18).burst.stationary_loss(), 0.1, 1e-12);
  // Mixed per-state loss: (1 - pi) * loss_good + pi * loss_bad.
  const BurstLossConfig mixed{0.1, 0.3, 0.02, 0.8};
  const double pi = 0.1 / (0.1 + 0.3);
  EXPECT_NEAR(mixed.stationary_loss(), (1.0 - pi) * 0.02 + pi * 0.8, 1e-12);
  // Inactive chain: no loss.
  EXPECT_DOUBLE_EQ(BurstLossConfig{}.stationary_loss(), 0.0);
}

TEST(FaultPlan, RandomPlanIsDeterministicAndAlwaysValid) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan a = random_plan(seed);
    const FaultPlan b = random_plan(seed);
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_DOUBLE_EQ(a.corrupt_prob, b.corrupt_prob);
    EXPECT_DOUBLE_EQ(a.burst.p_good_to_bad, b.burst.p_good_to_bad);
    EXPECT_EQ(a.max_delay.ns(), b.max_delay.ns());
    EXPECT_NO_THROW((void)validated(a));
  }
  // Seeds must actually vary the plan.
  EXPECT_NE(random_plan(1).describe(), random_plan(2).describe());
}

TEST(FaultInjector, RejectsInvalidPlan) {
  FaultPlan plan;
  plan.corrupt_prob = 2.0;
  EXPECT_THROW(FaultInjector(plan, 1), std::invalid_argument);
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  FaultPlan plan = burst_only(0.05, 0.2);
  plan.corrupt_prob = 0.3;
  plan.truncate_prob = 0.2;
  plan.duplicate_prob = 0.3;
  plan.max_duplicates = 3;
  plan.delay_prob = 0.5;

  FaultInjector a(plan, 77);
  FaultInjector b(plan, 77);
  const util::SharedBytes payload{util::random_payload(27, 5)};
  for (int i = 0; i < 500; ++i) {
    const auto from = static_cast<sim::NodeId>(1 + i % 3);
    const auto copies_a = a.intercept(from, 0, payload);
    const auto copies_b = b.intercept(from, 0, payload);
    ASSERT_EQ(copies_a.size(), copies_b.size());
    for (std::size_t c = 0; c < copies_a.size(); ++c) {
      EXPECT_EQ(copies_a[c].payload.bytes(), copies_b[c].payload.bytes());
      EXPECT_EQ(copies_a[c].extra_delay.ns(), copies_b[c].extra_delay.ns());
    }
  }
  EXPECT_EQ(a.stats().intercepted, b.stats().intercepted);
  EXPECT_EQ(a.stats().copies_emitted, b.stats().copies_emitted);
}

TEST(FaultInjector, BurstLossConvergesToStationaryAverage) {
  const double target = 0.15;
  const double p_b2g = 0.2;  // mean burst length 5
  const double p_g2b = target * p_b2g / (1.0 - target);
  FaultInjector injector(burst_only(p_g2b, p_b2g), 42);

  const util::SharedBytes payload{util::random_payload(27, 9)};
  const int n = 40000;
  for (int i = 0; i < n; ++i) (void)injector.intercept(1, 0, payload);

  const FaultStatsSnapshot& stats = injector.stats();
  EXPECT_EQ(stats.intercepted, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.intercepted, stats.dropped_burst + stats.forwarded);
  const double observed =
      static_cast<double>(stats.dropped_burst) / static_cast<double>(n);
  EXPECT_NEAR(observed, target, 0.02);
}

TEST(FaultInjector, ChainPinnedBadDropsEverything) {
  // p_good_to_bad=1 moves every link to the bad state on its first
  // delivery; with loss_bad=1 and a negligible escape probability the
  // channel is effectively dead — the degenerate end of the GE family.
  FaultPlan plan = burst_only(1.0, 0.0001);
  FaultInjector injector(plan, 3);
  const util::SharedBytes payload{util::random_payload(10, 2)};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.intercept(1, 0, payload).empty());
  }
  EXPECT_EQ(injector.stats().dropped_burst, 50u);
}

TEST(FaultInjector, CorruptionAlwaysChangesThePayload) {
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  plan.corrupt_byte_prob = 0.01;  // often zero draws -> forced-flip path
  FaultInjector injector(plan, 11);
  const util::SharedBytes payload{util::random_payload(27, 13)};
  for (int i = 0; i < 2000; ++i) {
    const auto copies = injector.intercept(1, 0, payload);
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_EQ(copies[0].payload.size(), payload.size());
    EXPECT_NE(copies[0].payload.bytes(), payload.bytes());
  }
  EXPECT_EQ(injector.stats().corrupted_copies, 2000u);
}

TEST(FaultInjector, TruncationAlwaysShortens) {
  FaultPlan plan;
  plan.truncate_prob = 1.0;
  FaultInjector injector(plan, 19);
  const util::SharedBytes payload{util::random_payload(27, 17)};
  for (int i = 0; i < 500; ++i) {
    const auto copies = injector.intercept(1, 0, payload);
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_LT(copies[0].payload.size(), payload.size());
  }
  EXPECT_EQ(injector.stats().truncated_copies, 500u);
}

TEST(FaultInjector, DuplicationBoundsAndAccounting) {
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  plan.max_duplicates = 3;
  FaultInjector injector(plan, 23);
  const util::SharedBytes payload{util::random_payload(20, 19)};
  std::uint64_t copies_total = 0;
  for (int i = 0; i < 500; ++i) {
    const auto copies = injector.intercept(1, 0, payload);
    ASSERT_GE(copies.size(), 2u);  // duplicated delivery: original + >= 1
    ASSERT_LE(copies.size(), 4u);  // original + max_duplicates
    copies_total += copies.size();
  }
  EXPECT_EQ(injector.stats().copies_emitted, copies_total);
  EXPECT_EQ(injector.stats().forwarded, 500u);
  EXPECT_GE(injector.stats().copies_emitted, injector.stats().forwarded);
}

TEST(FaultInjector, DelayIsPositiveAndBounded) {
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.max_delay = sim::Duration::milliseconds(10);
  FaultInjector injector(plan, 29);
  const util::SharedBytes payload{util::random_payload(20, 23)};
  for (int i = 0; i < 500; ++i) {
    const auto copies = injector.intercept(1, 0, payload);
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_GT(copies[0].extra_delay.ns(), 0);
    EXPECT_LE(copies[0].extra_delay.ns(), plan.max_delay.ns());
  }
}

TEST(FaultInjector, FamiliesDrawFromIndependentStreams) {
  // Toggling the delay family must not perturb burst decisions: the drop
  // pattern over a fixed delivery sequence is identical with and without
  // delays, because each family derives its own stream from the seed.
  FaultPlan burst = burst_only(0.1, 0.3);
  FaultPlan burst_and_delay = burst;
  burst_and_delay.delay_prob = 0.7;

  FaultInjector plain(burst, 101);
  FaultInjector delayed(burst_and_delay, 101);
  const util::SharedBytes payload{util::random_payload(27, 31)};
  for (int i = 0; i < 2000; ++i) {
    const bool dropped_plain = plain.intercept(1, 0, payload).empty();
    const bool dropped_delayed = delayed.intercept(1, 0, payload).empty();
    ASSERT_EQ(dropped_plain, dropped_delayed) << "diverged at delivery " << i;
  }
  EXPECT_EQ(plain.stats().dropped_burst, delayed.stats().dropped_burst);
}

}  // namespace
}  // namespace retri::fault
