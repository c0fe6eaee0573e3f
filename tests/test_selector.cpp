#include "core/selector.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <unordered_set>

namespace retri::core {
namespace {

TEST(UniformSelector, StaysInSpace) {
  UniformSelector sel(IdSpace(4), 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(sel.select().value(), 16u);
  }
}

TEST(UniformSelector, ApproximatelyUniform) {
  UniformSelector sel(IdSpace(3), 2);
  std::array<int, 8> counts{};
  constexpr int kSamples = 80'000;
  for (int i = 0; i < kSamples; ++i) ++counts[sel.select().value()];
  const double expected = kSamples / 8.0;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 24.32);  // chi^2_{7, 0.999}
}

TEST(UniformSelector, DeterministicPerSeed) {
  UniformSelector a(IdSpace(16), 42);
  UniformSelector b(IdSpace(16), 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.select(), b.select());
}

TEST(UniformSelector, IgnoresObservations) {
  UniformSelector sel(IdSpace(1), 3);
  sel.observe(TransactionId(0));
  sel.notify_collision(TransactionId(0));
  sel.set_density(100.0);
  // Both values of a 1-bit space still occur.
  bool saw0 = false;
  bool saw1 = false;
  for (int i = 0; i < 100; ++i) {
    const auto v = sel.select().value();
    if (v == 0) saw0 = true;
    if (v == 1) saw1 = true;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST(UniformSelector, SixtyFourBitSpaceWorks) {
  UniformSelector sel(IdSpace(64), 5);
  std::unordered_set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(sel.select().value());
  EXPECT_EQ(seen.size(), 1000u);  // collisions in 2^64 are absurdly unlikely
}

TEST(ListeningSelector, AvoidsRecentlyHeardIds) {
  ListeningConfig config;
  config.fixed_window = 4;
  ListeningSelector sel(IdSpace(3), 7, config);
  sel.observe(TransactionId(0));
  sel.observe(TransactionId(1));
  sel.observe(TransactionId(2));
  sel.observe(TransactionId(3));
  for (int i = 0; i < 500; ++i) {
    const auto v = sel.select().value();
    EXPECT_GE(v, 4u) << "selected an avoided id";
  }
  EXPECT_EQ(sel.avoided(), 4u);
}

TEST(ListeningSelector, WindowEvictsOldestObservation) {
  ListeningConfig config;
  config.fixed_window = 2;
  ListeningSelector sel(IdSpace(2), 7, config);
  sel.observe(TransactionId(0));
  sel.observe(TransactionId(1));
  sel.observe(TransactionId(2));  // evicts 0
  bool saw0 = false;
  for (int i = 0; i < 200; ++i) {
    const auto v = sel.select().value();
    EXPECT_NE(v, 1u);
    EXPECT_NE(v, 2u);
    if (v == 0) saw0 = true;
  }
  EXPECT_TRUE(saw0);
}

TEST(ListeningSelector, AdaptiveWindowIsTwiceDensity) {
  ListeningSelector sel(IdSpace(8), 7);
  EXPECT_EQ(sel.window(), 2u);  // initial density 1 -> 2T = 2
  sel.set_density(5.0);
  EXPECT_EQ(sel.window(), 10u);
  sel.set_density(2.5);
  EXPECT_EQ(sel.window(), 5u);
  sel.set_density(0.5);  // clamped to 1
  EXPECT_EQ(sel.window(), 2u);
}

TEST(ListeningSelector, ShrinkingDensityTrimsAvoidSet) {
  ListeningSelector sel(IdSpace(8), 7);
  sel.set_density(10.0);  // window 20
  for (std::uint64_t v = 0; v < 20; ++v) sel.observe(TransactionId(v));
  EXPECT_EQ(sel.avoided(), 20u);
  sel.set_density(2.0);  // window 4
  EXPECT_EQ(sel.avoided(), 4u);
}

TEST(ListeningSelector, FullyAvoidedPoolFallsBackToUniform) {
  ListeningConfig config;
  config.fixed_window = 2;
  ListeningSelector sel(IdSpace(1), 7, config);
  sel.observe(TransactionId(0));
  sel.observe(TransactionId(1));
  // Whole 1-bit pool avoided: selection must still terminate and return
  // a valid id.
  for (int i = 0; i < 50; ++i) EXPECT_LT(sel.select().value(), 2u);
}

TEST(ListeningSelector, NearlyFullAvoidSetSelectsTheHole) {
  ListeningConfig config;
  config.fixed_window = 15;
  ListeningSelector sel(IdSpace(4), 7, config);
  for (std::uint64_t v = 0; v < 15; ++v) sel.observe(TransactionId(v));
  // Only id 15 is free; exact enumeration must find it every time.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sel.select().value(), 15u);
}

TEST(ListeningSelector, LargePoolRejectionSamplingAvoids) {
  ListeningConfig config;
  config.fixed_window = 64;
  ListeningSelector sel(IdSpace(16), 7, config);
  std::unordered_set<std::uint64_t> avoided;
  for (std::uint64_t v = 0; v < 64; ++v) {
    sel.observe(TransactionId(v));
    avoided.insert(v);
  }
  for (int i = 0; i < 2000; ++i) {
    EXPECT_FALSE(avoided.contains(sel.select().value()));
  }
}

TEST(ListeningSelector, DuplicateObservationsKeepMembershipCorrect) {
  ListeningConfig config;
  config.fixed_window = 3;
  ListeningSelector sel(IdSpace(3), 7, config);
  sel.observe(TransactionId(5));
  sel.observe(TransactionId(5));
  sel.observe(TransactionId(5));
  EXPECT_EQ(sel.avoided(), 1u);
  // One more observation evicts one copy of 5; it is still avoided.
  sel.observe(TransactionId(6));
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(sel.select().value(), 5u);
    EXPECT_NE(sel.select().value(), 6u);
  }
}

TEST(ListeningSelector, NotificationsIgnoredUnlessEnabled) {
  ListeningConfig config;
  config.fixed_window = 4;
  ListeningSelector sel(IdSpace(2), 7, config);
  sel.notify_collision(TransactionId(1));
  EXPECT_EQ(sel.avoided(), 0u);
}

TEST(ListeningSelector, NotificationsQuarantineWhenEnabled) {
  ListeningConfig config;
  config.fixed_window = 4;
  config.heed_notifications = true;
  ListeningSelector sel(IdSpace(3), 7, config);
  sel.notify_collision(TransactionId(2));
  EXPECT_EQ(sel.avoided(), 1u);
  for (int i = 0; i < 200; ++i) EXPECT_NE(sel.select().value(), 2u);
}

TEST(ListeningSelector, NameIsThePolicyFamilyOnly) {
  // The old name-mangling ("listening+notify" from the selector object) is
  // retired: objects report their policy family; the SPEC describes the
  // notify variant (see describe()).
  ListeningSelector plain(IdSpace(8), 1);
  EXPECT_EQ(plain.name(), "listening");
  ListeningConfig config;
  config.heed_notifications = true;
  ListeningSelector notifying(IdSpace(8), 1, config);
  EXPECT_EQ(notifying.name(), "listening");
  UniformSelector uniform(IdSpace(8), 1);
  EXPECT_EQ(uniform.name(), "uniform");
}

TEST(MakeSelector, BuildsEachPolicy) {
  const IdSpace space(8);
  const auto build = [&](std::string_view name) {
    return make_selector(parse_selector_spec(name).value(), space, 1);
  };
  EXPECT_EQ(build("uniform")->name(), "uniform");
  EXPECT_EQ(build("listening")->name(), "listening");
  EXPECT_EQ(build("listening+notify")->name(), "listening");
  EXPECT_EQ(build("counter")->name(), "counter");
  EXPECT_EQ(build("hashed_counter")->name(), "hashed_counter");
  EXPECT_EQ(build("permutation")->name(), "permutation");
  EXPECT_EQ(build("hybrid")->name(), "hybrid");
  EXPECT_FALSE(parse_selector_spec("bogus").ok());
}

TEST(MakeSelector, UnknownNameErrorListsEveryPolicy) {
  const auto parsed = parse_selector_spec("bogus");
  ASSERT_FALSE(parsed.ok());
  for (const std::string_view name : named_selectors()) {
    EXPECT_NE(parsed.error().find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace retri::core
