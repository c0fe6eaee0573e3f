// Selector-zoo property suite (ctest label: selector).
//
// The statistical and structural guarantees each policy advertises:
// chi-square uniformity for the memoryless policies, zero self-collision
// within one period for the permutation walk, and avoid-set respect for
// the hybrid. Lives in its own binary so scripts/check.sh can run
// `ctest -L selector` next to the attacker soak.
#include "core/selector.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace retri::core {
namespace {

/// Pearson chi-square statistic of `draws` selections against a uniform
/// 2^bits-cell expectation.
template <typename Selector>
double chi_square(Selector& sel, unsigned bits, int draws) {
  std::vector<int> counts(std::size_t{1} << bits, 0);
  for (int i = 0; i < draws; ++i) ++counts[sel.select().value()];
  const double expected =
      static_cast<double>(draws) / static_cast<double>(counts.size());
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

TEST(SelectorZoo, UniformPassesChiSquare) {
  UniformSelector sel(IdSpace(3), 11);
  EXPECT_LT(chi_square(sel, 3, 80'000), 24.32);  // chi^2_{7, 0.999}
}

TEST(SelectorZoo, HashedCounterPassesChiSquare) {
  // The "hash-based" class must be statistically indistinguishable from the
  // uniform baseline: splitmix64 over the salted draw index, masked into
  // the space.
  HashedCounterSelector sel(IdSpace(3), 11);
  EXPECT_LT(chi_square(sel, 3, 80'000), 24.32);  // chi^2_{7, 0.999}

  HashedCounterSelector salted(IdSpace(3), 11, /*salt=*/7);
  EXPECT_LT(chi_square(salted, 3, 80'000), 24.32);
}

TEST(SelectorZoo, HashedCounterIsReproduciblePerSeedAndSalt) {
  HashedCounterSelector a(IdSpace(16), 5, 9);
  HashedCounterSelector b(IdSpace(16), 5, 9);
  HashedCounterSelector other_salt(IdSpace(16), 5, 10);
  bool diverged = false;
  for (int i = 0; i < 256; ++i) {
    const auto va = a.select();
    EXPECT_EQ(va, b.select());
    diverged |= va != other_salt.select();
  }
  EXPECT_TRUE(diverged) << "salt did not change the stream";
}

TEST(SelectorZoo, CounterWalksSequentiallyModuloTheSpace) {
  CounterSelector sel(IdSpace(4), 3);
  const std::uint64_t first = sel.select().value();
  for (std::uint64_t i = 1; i < 40; ++i) {
    EXPECT_EQ(sel.select().value(), (first + i) % 16u);
  }
}

TEST(SelectorZoo, CounterNeverSelfCollidesWithinOneWrap) {
  CounterSelector sel(IdSpace(6), 17);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(seen.insert(sel.select().value()).second);
  EXPECT_EQ(seen.size(), 64u);
}

TEST(SelectorZoo, PermutationHasZeroSelfCollisionWithinFullPeriod) {
  // Injectivity is the whole point of the PERIDOT-style walk: one full
  // period must visit every identifier exactly once, for every space width
  // and seed we throw at it.
  for (const unsigned bits : {1u, 2u, 4u, 8u, 10u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      PermutationSelector sel(IdSpace(bits), seed);
      const std::uint64_t period = std::uint64_t{1} << bits;
      ASSERT_EQ(sel.period(), period);
      std::set<std::uint64_t> seen;
      for (std::uint64_t i = 0; i < period; ++i) {
        const std::uint64_t v = sel.select().value();
        ASSERT_LT(v, period) << "bits=" << bits << " seed=" << seed;
        EXPECT_TRUE(seen.insert(v).second)
            << "self-collision at draw " << i << " (bits=" << bits
            << " seed=" << seed << ")";
      }
      EXPECT_EQ(seen.size(), period);
    }
  }
}

TEST(SelectorZoo, PermutationRekeysToAFreshBijectionEachPeriod) {
  PermutationSelector sel(IdSpace(5), 23);
  std::vector<std::uint64_t> first_period;
  std::vector<std::uint64_t> second_period;
  for (int i = 0; i < 32; ++i) first_period.push_back(sel.select().value());
  for (int i = 0; i < 32; ++i) second_period.push_back(sel.select().value());
  // Both periods are full permutations of the space...
  EXPECT_EQ(std::set<std::uint64_t>(first_period.begin(), first_period.end())
                .size(),
            32u);
  EXPECT_EQ(std::set<std::uint64_t>(second_period.begin(), second_period.end())
                .size(),
            32u);
  // ...but not the same walk: the rekey draws fresh coefficients.
  EXPECT_NE(first_period, second_period);
}

TEST(SelectorZoo, PermutationShortPeriodRekeysEarly) {
  PermutationSelector sel(IdSpace(8), 23, /*period=*/4);
  EXPECT_EQ(sel.period(), 4u);
  // Each 4-draw window is collision-free even though the space is 256 wide.
  for (int window = 0; window < 8; ++window) {
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(seen.insert(sel.select().value()).second);
  }
}

TEST(SelectorZoo, PermutationPeriodIsClampedToTheSpace) {
  PermutationSelector sel(IdSpace(3), 23, /*period=*/1'000'000);
  EXPECT_EQ(sel.period(), 8u);
}

TEST(SelectorZoo, PermutationDeterministicPerSeed) {
  PermutationSelector a(IdSpace(12), 99);
  PermutationSelector b(IdSpace(12), 99);
  for (int i = 0; i < 10'000; ++i) EXPECT_EQ(a.select(), b.select());
}

TEST(SelectorZoo, HybridRespectsTheAvoidSet) {
  ListeningConfig config;
  config.fixed_window = 4;
  HybridSelector sel(IdSpace(4), 7, config);
  for (std::uint64_t v = 0; v < 4; ++v) sel.observe(TransactionId(v));
  EXPECT_EQ(sel.avoided(), 4u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(sel.select().value(), 4u) << "selected an avoided id";
  }
}

TEST(SelectorZoo, HybridKeepsZeroSelfCollisionWhileSkipping) {
  // Skips advance the walk, so within one period the selected ids are a
  // distinct subset of the permutation: avoidance costs coverage, never
  // injectivity.
  ListeningConfig config;
  config.fixed_window = 4;
  HybridSelector sel(IdSpace(4), 7, config);
  for (std::uint64_t v = 0; v < 4; ++v) sel.observe(TransactionId(v));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 12; ++i) {  // 16-id period minus the 4 avoided
    EXPECT_TRUE(seen.insert(sel.select().value()).second);
  }
}

TEST(SelectorZoo, HybridTerminatesWhenWholePoolIsAvoided) {
  ListeningConfig config;
  config.fixed_window = 2;
  HybridSelector sel(IdSpace(1), 7, config);
  sel.observe(TransactionId(0));
  sel.observe(TransactionId(1));
  for (int i = 0; i < 50; ++i) EXPECT_LT(sel.select().value(), 2u);
}

TEST(SelectorZoo, HybridHeedsNotificationsWhenEnabled) {
  ListeningConfig config;
  config.fixed_window = 4;
  config.heed_notifications = true;
  HybridSelector sel(IdSpace(3), 7, config);
  sel.notify_collision(TransactionId(5));
  EXPECT_EQ(sel.avoided(), 1u);
  for (int i = 0; i < 100; ++i) EXPECT_NE(sel.select().value(), 5u);
}

// --- SelectorSpec surface ---------------------------------------------------

TEST(SelectorSpecApi, RegistryRoundTripsEveryPolicy) {
  const auto names = named_selectors();
  ASSERT_GE(names.size(), 5u);
  for (const std::string_view name : names) {
    const auto parsed = parse_selector_spec(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(describe(parsed.value()), name);
  }
}

TEST(SelectorSpecApi, DescribeSeparatesListeningFromNotify) {
  EXPECT_EQ(describe(listening_selector()), "listening");
  EXPECT_EQ(describe(listening_selector(/*heed_notifications=*/true)),
            "listening+notify");
  EXPECT_EQ(describe(uniform_selector()), "uniform");
  EXPECT_EQ(describe(hybrid_selector()), "hybrid");
}

TEST(SelectorSpecApi, ValidatedRejectsBadListeningParameters) {
  SelectorSpec spec = listening_selector();
  spec.listening.initial_density = -1.0;
  EXPECT_THROW((void)validated(spec), std::invalid_argument);

  spec = listening_selector(true);
  spec.listening.notification_multiplier = 0;
  EXPECT_THROW((void)validated(spec), std::invalid_argument);

  EXPECT_NO_THROW((void)validated(hybrid_selector(1234)));
}

TEST(SelectorSpecApi, SpecParametersReachTheSelector) {
  // counter_salt and permutation_period are not dead config: they must
  // change / bound the walk.
  const IdSpace space(10);
  const auto salted = make_selector(counter_selector(/*salt=*/5), space, 1);
  const auto unsalted = make_selector(counter_selector(), space, 1);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) diverged |= salted->select() != unsalted->select();
  EXPECT_TRUE(diverged);

  SelectorSpec perm = permutation_selector(/*period=*/8);
  const auto walker = make_selector(perm, space, 3);
  std::set<std::uint64_t> window;
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(window.insert(walker->select().value()).second);
}

}  // namespace
}  // namespace retri::core
