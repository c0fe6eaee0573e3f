// fault::IoFaultInjector: decisions must be pure functions of
// (plan, op key, ordinal) — never of call order or thread interleaving —
// so a seeded fault schedule replays exactly. Also covers crash-point
// arming.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/io_fault.hpp"

namespace fault = retri::fault;

namespace {

fault::IoFaultPlan all_families_plan() {
  fault::IoFaultPlan plan;
  plan.short_write_prob = 0.5;
  plan.eintr_prob = 0.5;
  plan.enospc_prob = 0.5;
  return plan;
}

}  // namespace

TEST(IoFaultPlan, ValidatedRejectsOutOfRangeProbability) {
  fault::IoFaultPlan plan;
  plan.eintr_prob = 1.5;
  EXPECT_THROW((void)fault::validated(plan), std::invalid_argument);
  plan.eintr_prob = -0.1;
  EXPECT_THROW((void)fault::validated(plan), std::invalid_argument);
  plan.eintr_prob = 1.0;
  EXPECT_NO_THROW((void)fault::validated(plan));
}

TEST(IoFaultInjector, DecisionsIgnoreCallOrder) {
  // Two injectors with the same plan+seed, interrogated in opposite orders
  // and with unrelated ops interleaved, must agree on every decision. This
  // is the property that makes a seeded fault schedule replayable.
  const fault::IoFaultPlan plan = all_families_plan();
  fault::IoFaultInjector a(plan, 42);
  fault::IoFaultInjector b(plan, 42);

  struct Probe {
    std::string op;
    std::uint64_t ordinal;
  };
  std::vector<Probe> probes;
  for (std::uint64_t i = 0; i < 32; ++i) {
    probes.push_back({"store-op", i});
    probes.push_back({"cache-key-" + std::to_string(i % 5), i});
  }

  // a: forward order; b: reverse order with extra unrelated draws mixed in.
  std::vector<std::size_t> a_writes, b_writes;
  std::vector<bool> a_eintr, b_eintr;
  for (const Probe& p : probes) {
    a_writes.push_back(a.clamp_write(p.op, p.ordinal, 4096));
    a_eintr.push_back(a.inject_eintr(p.op, p.ordinal));
  }
  for (auto it = probes.rbegin(); it != probes.rend(); ++it) {
    (void)b.inject_enospc("noise-" + std::to_string(it->ordinal));  // unrelated
    b_writes.push_back(b.clamp_write(it->op, it->ordinal, 4096));
    b_eintr.push_back(b.inject_eintr(it->op, it->ordinal));
  }
  std::reverse(b_writes.begin(), b_writes.end());
  std::reverse(b_eintr.begin(), b_eintr.end());
  EXPECT_EQ(a_writes, b_writes);
  EXPECT_EQ(a_eintr, b_eintr);
}

TEST(IoFaultInjector, FamiliesAreIndependent) {
  // Toggling one family must not perturb another's decisions: the short-
  // write pattern with EINTR off equals the pattern with EINTR maxed.
  fault::IoFaultPlan quiet;
  quiet.short_write_prob = 0.5;
  fault::IoFaultPlan noisy = quiet;
  noisy.eintr_prob = 1.0;
  noisy.enospc_prob = 0.3;

  fault::IoFaultInjector a(quiet, 7);
  fault::IoFaultInjector b(noisy, 7);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.clamp_write("op", i, 1000), b.clamp_write("op", i, 1000))
        << "ordinal " << i;
  }
}

TEST(IoFaultInjector, ClampsTransferAtLeastOneByte) {
  fault::IoFaultPlan plan;
  plan.short_write_prob = 1.0;
  fault::IoFaultInjector injector(plan, 3);
  bool shortened = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::size_t w = injector.clamp_write("w", i, 100);
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 100u);
    shortened = shortened || w < 100;
  }
  EXPECT_TRUE(shortened);
  // A zero-byte opportunity stays zero (nothing to truncate).
  EXPECT_EQ(injector.clamp_write("w", 0, 0), 0u);
}

TEST(IoFaultInjector, EnospcIsKeyedByOpAlone) {
  // A full disk stays full for that store op: the decision must not vary
  // with repetition.
  fault::IoFaultPlan plan;
  plan.enospc_prob = 0.5;
  fault::IoFaultInjector injector(plan, 11);
  bool hit_true = false, hit_false = false;
  for (int k = 0; k < 50; ++k) {
    const std::string op = "entry-" + std::to_string(k);
    const bool first = injector.inject_enospc(op);
    EXPECT_EQ(first, injector.inject_enospc(op)) << op;
    (first ? hit_true : hit_false) = true;
  }
  // At p=0.5 over 50 keys both outcomes occur (seed-stable expectation).
  EXPECT_TRUE(hit_true);
  EXPECT_TRUE(hit_false);
}

TEST(IoFaultInjector, CrashPointThrowsAfterArmedVisits) {
  fault::IoFaultPlan plan;
  plan.crash_at = "serve.io.tmp_written";
  plan.crash_after = 2;
  fault::IoFaultInjector injector(plan, 1);

  injector.crash_point("serve.io.tmp_open");     // different point: no throw
  injector.crash_point("serve.io.tmp_written");  // visit 0
  injector.crash_point("serve.io.tmp_written");  // visit 1
  EXPECT_THROW(injector.crash_point("serve.io.tmp_written"),
               fault::CrashPointHit);
  try {
    injector.crash_point("serve.io.tmp_written");
    FAIL() << "expected CrashPointHit";
  } catch (const fault::CrashPointHit& hit) {
    EXPECT_EQ(hit.point(), "serve.io.tmp_written");
  }
  EXPECT_GE(injector.stats().crash_point_visits, 3u);
}

TEST(IoFaultInjector, UnarmedCrashPointsOnlyCount) {
  fault::IoFaultInjector injector(fault::IoFaultPlan{}, 1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(injector.crash_point("serve.io.renamed"));
  }
  EXPECT_EQ(injector.stats().crash_point_visits, 5u);
}
