// Golden-fingerprint determinism gate.
//
// The allocation-free engine/medium refactors (slab events, shared payload
// buffers, pooled receptions) must be *bit-identical* rewrites: same RNG
// draw order, same event ordering, same delivered bytes. These constants
// were generated from the pre-refactor implementation (configs A/B/C × 2
// trials each, plus two chaos soak seeds) and every future change to the
// hot path has to reproduce them exactly. A mismatch here means simulation
// behavior changed — either an intentional semantic change (regenerate the
// constants and say so in the commit) or a real determinism bug.
//
// Fingerprints cover only integer fields; see runner::fingerprint for why
// doubles are excluded.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runner/chaos.hpp"
#include "runner/experiment.hpp"
#include "runner/trial_runner.hpp"

namespace {

using namespace retri;  // NOLINT: test file, brevity wins

runner::ExperimentConfig config_a() {
  runner::ExperimentConfig config;
  config.senders = 3;
  config.send_duration = sim::Duration::seconds(2);
  config.seed = 1;
  return config;
}

runner::ExperimentConfig config_b() {
  runner::ExperimentConfig config;
  config.senders = 4;
  config.id_bits = 4;
  config.selector = core::listening_selector(/*heed_notifications=*/true);
  config.collision_notifications = true;
  config.send_duration = sim::Duration::seconds(2);
  config.seed = 2;
  return config;
}

runner::ExperimentConfig config_c() {
  runner::ExperimentConfig config;
  config.senders = 3;
  config.channel = runner::Channel::kChaos;
  config.loss_rate = 0.15;
  config.send_duration = sim::Duration::seconds(2);
  config.seed = 3;
  return config;
}

std::vector<std::string> run_two_trials(const runner::ExperimentConfig& c) {
  const auto results = runner::TrialRunner().run(c, 2);
  std::vector<std::string> prints;
  for (const auto& result : results) {
    prints.push_back(runner::fingerprint(result));
  }
  return prints;
}

TEST(GoldenFingerprints, BaselineUniformConfig) {
  const auto prints = run_two_trials(config_a());
  ASSERT_EQ(prints.size(), 2u);
  EXPECT_EQ(prints[0],
            "offered=129 aff=127 truth=129 cksum=1 confl=1 notif=0 "
            "tx_bits=173376 frames=2709 lost_ch=0 aff_sizes{80:127,} "
            "truth_sizes{80:129,}");
  EXPECT_EQ(prints[1],
            "offered=129 aff=127 truth=129 cksum=1 confl=6 notif=0 "
            "tx_bits=173376 frames=2709 lost_ch=0 aff_sizes{80:127,} "
            "truth_sizes{80:129,}");
}

TEST(GoldenFingerprints, ListeningNotifySmallIdSpace) {
  const auto prints = run_two_trials(config_b());
  ASSERT_EQ(prints.size(), 2u);
  EXPECT_EQ(prints[0],
            "offered=170 aff=166 truth=170 cksum=2 confl=12 notif=12 "
            "tx_bits=228864 frames=4904 lost_ch=0 aff_sizes{80:166,} "
            "truth_sizes{80:170,}");
  EXPECT_EQ(prints[1],
            "offered=168 aff=154 truth=168 cksum=7 confl=40 notif=40 "
            "tx_bits=227072 frames=5184 lost_ch=0 aff_sizes{80:154,} "
            "truth_sizes{80:168,}");
}

TEST(GoldenFingerprints, ChaosChannel) {
  const auto prints = run_two_trials(config_c());
  ASSERT_EQ(prints.size(), 2u);
  EXPECT_EQ(prints[0],
            "offered=129 aff=42 truth=38 cksum=10 confl=12 notif=0 "
            "tx_bits=173376 frames=2223 lost_ch=246 aff_sizes{80:42,} "
            "truth_sizes{80:38,}");
  EXPECT_EQ(prints[1],
            "offered=129 aff=37 truth=35 cksum=14 confl=19 notif=0 "
            "tx_bits=173376 frames=2328 lost_ch=255 aff_sizes{80:37,} "
            "truth_sizes{80:35,}");
}

TEST(GoldenFingerprints, ChaosSoakTrials) {
  runner::ChaosTrialConfig config;
  config.senders = 3;
  config.send_duration = sim::Duration::seconds(2);

  config.seed = 7;
  EXPECT_EQ(
      runner::fingerprint(runner::run_chaos_trial(config)),
      "plan{burst(avg=0.299,len=3.2) corrupt(0.119/0.29) trunc(0.054) "
      "dup(0.055,max=2) churn(up=6.0s,down=0.77s)} frames_sent=959 "
      "attempted=2877 delivered=650 lost_random=0 lost_rf=0 lost_hdx=2023 "
      "lost_off=0 lost_fault=257 fault_extra=53 intercepted=854 "
      "dropped_burst=257 corrupted=80 truncated=30 delayed=0 copies=650 "
      "offered=129 aff=3 truth=3 undecodable=48 crashes=0 restarts=0 "
      "aff_seen=552 aff_checksum_failed=4 aff_conflicts=56 truth_seen=552 "
      "max_pending=64 violations=0");

  config.seed = 8;
  EXPECT_EQ(
      runner::fingerprint(runner::run_chaos_trial(config)),
      "plan{burst(avg=0.230,len=2.9) trunc(0.059) dup(0.064,max=2) "
      "delay(0.32,47ms)} frames_sent=1032 attempted=3096 delivered=2618 "
      "lost_random=0 lost_rf=0 lost_hdx=0 lost_off=0 lost_fault=729 "
      "fault_extra=251 intercepted=3096 dropped_burst=729 corrupted=0 "
      "truncated=155 delayed=833 copies=2618 offered=123 aff=20 truth=20 "
      "undecodable=30 crashes=0 restarts=0 aff_seen=708 "
      "aff_checksum_failed=8 aff_conflicts=71 truth_seen=708 "
      "max_pending=64 violations=0");
}

// The TrialRunner shards trials across worker threads; the fingerprints —
// and therefore everything derived from them — must not depend on --jobs.
TEST(GoldenFingerprints, IdenticalAcrossJobCounts) {
  runner::TrialRunnerOptions parallel;
  parallel.jobs = 4;
  const auto serial = runner::TrialRunner().run(config_a(), 4);
  const auto sharded = runner::TrialRunner(parallel).run(config_a(), 4);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(runner::fingerprint(serial[t]), runner::fingerprint(sharded[t]))
        << "trial " << t;
  }
}

}  // namespace
