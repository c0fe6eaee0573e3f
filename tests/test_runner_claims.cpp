// runner/claims: each claim's verdict on hand-built sweep results, with no
// simulation. A claim holds on a grid built to pass it and fails on one
// built to fail it; it is "not evaluated", never "holds", when an interval
// rests on fewer than 2 trials or its points are absent; and Eq. 4 is read
// at each point's own H and T. The last test checks that every claim finds
// its subjects and partners in its own make_named_sweep grid.
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.hpp"
#include "runner/claims.hpp"
#include "runner/sweep.hpp"

namespace runner = retri::runner;
namespace core = retri::core;
using runner::ExperimentConfig;
using runner::ExperimentResult;
using runner::SweepResult;
using runner::Verdict;

namespace {

constexpr double kUnits = 100000.0;

std::uint64_t units(double fraction) {
  return static_cast<std::uint64_t>(std::llround(fraction * kUnits));
}

/// A trial whose collision loss is `loss`.
ExperimentResult loss_trial(double loss) {
  ExperimentResult trial;
  trial.truth_delivered = units(1.0);
  trial.aff_delivered = units(1.0 - loss);
  return trial;
}

/// A trial whose channel drops `frame_loss` of its frames and lets
/// `delivery` of the offered packets through.
ExperimentResult channel_trial(double frame_loss, double delivery) {
  ExperimentResult trial;
  trial.frames_attempted = units(1.0);
  trial.frames_lost_channel = units(frame_loss);
  trial.packets_offered = units(1.0);
  trial.truth_delivered = units(delivery);
  trial.aff_delivered = trial.truth_delivered;
  return trial;
}

/// A trial of the 24 B / 240 B mix with these per-class losses.
ExperimentResult class_trial(double short_loss, double long_loss) {
  ExperimentResult trial;
  trial.truth_by_size = {{24, units(1.0)}, {240, units(1.0)}};
  trial.aff_by_size = {{24, units(1.0 - short_loss)},
                       {240, units(1.0 - long_loss)}};
  return trial;
}

/// Four trials at `mean` ± 0.005: a 95% interval of half-width 0.0092
/// (t = 3.182 at 3 degrees of freedom).
std::vector<ExperimentResult> around(
    double mean, const std::function<ExperimentResult(double)>& make) {
  std::vector<ExperimentResult> trials;
  for (const double jitter : {-0.005, 0.005, -0.005, 0.005}) {
    trials.push_back(make(mean + jitter));
  }
  return trials;
}

std::vector<ExperimentResult> losses_around(double mean) {
  return around(mean, loss_trial);
}

ExperimentConfig config(unsigned bits, const core::SelectorSpec& selector) {
  ExperimentConfig c;
  c.id_bits = bits;
  c.selector = selector;
  return c;
}

void add(SweepResult& result, std::string label, const ExperimentConfig& c,
         std::vector<ExperimentResult> trials) {
  runner::SweepPointResult point;
  point.label = std::move(label);
  point.config = c;
  point.trials = std::move(trials);
  point.summary = runner::TrialRunner::summarize(point.trials);
  result.points.push_back(std::move(point));
}

// --- one grid per claim: `pass` true builds a result the claim must hold
// on, false one it must fail on. The two straddle the claim's bound by
// less than an interval's half-width (0.0092), so a claim that compared
// means, or read the wrong end of an interval, would get one of them
// wrong. Eq. 4 at H = 4, T = 5 is 0.4033.

SweepResult fig4_uniform(bool pass) {
  SweepResult r;
  // Mean 0.41 lies above Eq. 4 but its ci95.lo (0.4008) does not. The
  // H = 10 point holds either way: one failing point fails the claim.
  add(r, "H=4 uniform", config(4, core::uniform_selector()),
      losses_around(pass ? 0.41 : 0.415));
  add(r, "H=10 uniform", config(10, core::uniform_selector()),
      losses_around(0.005));
  return r;
}

SweepResult fig4_listening(bool pass) {
  SweepResult r;
  // At H = 2 listening has no room to avoid anything; the claim skips it.
  add(r, "H=2 uniform", config(2, core::uniform_selector()),
      losses_around(0.86));
  add(r, "H=2 listening", config(2, core::listening_selector()),
      losses_around(0.86));
  add(r, "H=4 uniform", config(4, core::uniform_selector()),
      losses_around(0.36));
  add(r, "H=4 listening", config(4, core::listening_selector()),
      losses_around(pass ? 0.34 : 0.345));
  return r;
}

SweepResult hidden_terminal(bool pass) {
  SweepResult r;
  ExperimentConfig uniform = config(4, core::uniform_selector());
  uniform.topology = runner::TopologyKind::kHiddenTerminal;
  ExperimentConfig listening = uniform;
  listening.selector = core::listening_selector();
  ExperimentConfig notify = uniform;
  notify.selector = core::listening_selector(/*heed_notifications=*/true);
  notify.collision_notifications = true;
  add(r, "H=4 uniform", uniform, losses_around(0.36));
  add(r, "H=4 listening", listening, losses_around(pass ? 0.375 : 0.38));
  add(r, "H=4 listening+notify", notify, losses_around(0.41));
  return r;
}

SweepResult txn_lengths(bool pass) {
  SweepResult r;
  ExperimentConfig c = config(4, core::uniform_selector());
  c.per_sender_packet_bytes = {24, 240};
  // Both classes jitter together, so the intervals are one offset apart.
  const double offset = pass ? 0.02 : 0.015;
  add(r, "H=4", c, around(0.27, [offset](double short_loss) {
        return class_trial(short_loss, short_loss + offset);
      }));
  return r;
}

SweepResult duty(double deaf_loss, double half_duty_loss) {
  SweepResult r;
  ExperimentConfig deaf = config(4, core::listening_selector());
  deaf.sender_listen_duty = 0.0;
  ExperimentConfig half = deaf;
  half.sender_listen_duty = 0.5;
  add(r, "duty=0.00", deaf, losses_around(deaf_loss));
  add(r, "duty=0.50", half, losses_around(half_duty_loss));
  return r;
}

// Only q = 0 is compared with Eq. 4; the q = 0.5 point above it is not.
SweepResult duty_deaf(bool pass) { return duty(pass ? 0.41 : 0.415, 0.45); }

SweepResult duty_below(bool pass) { return duty(0.36, pass ? 0.34 : 0.345); }

SweepResult density_estimators(bool pass) {
  SweepResult r;
  ExperimentConfig c = config(4, core::listening_selector());
  c.density_model = core::DensityModelKind::kPeakWindow;
  add(r, "H=4 peak_window", c, losses_around(pass ? 0.39 : 0.395));
  return r;
}

ExperimentConfig channel_config(runner::Channel channel) {
  ExperimentConfig c = config(8, core::uniform_selector());
  c.channel = channel;
  c.loss_rate = 0.15;
  return c;
}

SweepResult burst_calibrated(bool pass) {
  SweepResult r;
  add(r, "burst loss=0.15", channel_config(runner::Channel::kBurst),
      around(pass ? 0.158 : 0.16,
             [](double loss) { return channel_trial(loss, 0.69); }));
  return r;
}

SweepResult burst_delivery(bool pass) {
  SweepResult r;
  add(r, "independent loss=0.15",
      channel_config(runner::Channel::kIndependent),
      around(0.32, [](double d) { return channel_trial(0.15, d); }));
  add(r, "burst loss=0.15", channel_config(runner::Channel::kBurst),
      around(pass ? 0.34 : 0.335,
             [](double d) { return channel_trial(0.15, d); }));
  return r;
}

ExperimentConfig zoo(const core::SelectorSpec& selector,
                     retri::fault::AttackerMode mode) {
  ExperimentConfig c = config(6, selector);
  c.senders = 4;
  c.attacker.mode = mode;
  return c;
}

SweepResult selectors_permutation(bool pass) {
  SweepResult r;
  add(r, "uniform atk=off T=4",
      zoo(core::uniform_selector(), retri::fault::AttackerMode::kOff),
      losses_around(0.075));
  add(r, "permutation atk=off T=4",
      zoo(core::permutation_selector(), retri::fault::AttackerMode::kOff),
      losses_around(pass ? 0.09 : 0.095));
  return r;
}

SweepResult selectors_echo(bool pass) {
  SweepResult r;
  add(r, "uniform atk=off T=4",
      zoo(core::uniform_selector(), retri::fault::AttackerMode::kOff),
      losses_around(0.075));
  add(r, "uniform atk=echo_collide T=4",
      zoo(core::uniform_selector(), retri::fault::AttackerMode::kEchoCollide),
      losses_around(pass ? 0.095 : 0.09));
  return r;
}

const std::map<std::string_view, SweepResult (*)(bool)>& fixtures() {
  static const std::map<std::string_view, SweepResult (*)(bool)> kFixtures = {
      {"fig4.uniform_within_eq4", fig4_uniform},
      {"fig4.listening_below_uniform", fig4_listening},
      {"hidden_terminal.listening_matches_uniform", hidden_terminal},
      {"txn_lengths.long_class_loses_more", txn_lengths},
      {"duty_cycle.deaf_within_eq4", duty_deaf},
      {"duty_cycle.listening_below_deaf", duty_below},
      {"density_estimators.below_eq4", density_estimators},
      {"burst_loss.frame_loss_calibrated", burst_calibrated},
      {"burst_loss.burst_delivers_more", burst_delivery},
      {"selectors.permutation_no_worse", selectors_permutation},
      {"selectors.echo_raises_uniform_loss", selectors_echo},
  };
  return kFixtures;
}

const runner::Claim& claim_named(std::string_view id) {
  for (const runner::Claim& claim : runner::claims()) {
    if (claim.id == id) return claim;
  }
  throw std::out_of_range(std::string(id));
}

}  // namespace

TEST(Claims, EachHoldsOnAPassingGridAndFailsOnAFailingOne) {
  ASSERT_EQ(runner::claims().size(), fixtures().size());
  for (const runner::Claim& claim : runner::claims()) {
    SCOPED_TRACE(std::string(claim.id));
    const auto fixture = fixtures().find(claim.id);
    ASSERT_NE(fixture, fixtures().end()) << "no fixture for this claim";
    const runner::ClaimOutcome pass = runner::evaluate(claim, fixture->second(true));
    EXPECT_EQ(pass.verdict, Verdict::kHolds);
    ASSERT_NE(pass.tightest(), nullptr);
    EXPECT_TRUE(pass.tightest()->holds());

    const runner::ClaimOutcome fail =
        runner::evaluate(claim, fixture->second(false));
    EXPECT_EQ(fail.verdict, Verdict::kFails);
    ASSERT_NE(fail.tightest(), nullptr);
    EXPECT_FALSE(fail.tightest()->holds());
    EXPECT_LT(fail.tightest()->margin(), 0.0);
  }
}

TEST(Claims, FewerThanTwoTrialsIsNotEvaluated) {
  const auto keep_one_trial = [](runner::SweepPointResult& point) {
    point.trials.resize(1);
    point.summary = runner::TrialRunner::summarize(point.trials);
  };
  // One trial gives a zero-width interval, which can support nothing.
  for (const runner::Claim& claim : runner::claims()) {
    SCOPED_TRACE(std::string(claim.id));
    SweepResult result = fixtures().at(claim.id)(true);
    for (runner::SweepPointResult& point : result.points) {
      keep_one_trial(point);
    }
    EXPECT_EQ(runner::evaluate(claim, result).verdict, Verdict::kNotEvaluated);
  }
  // Only the partner point short of trials is enough.
  const runner::Claim& listening = claim_named("fig4.listening_below_uniform");
  SweepResult result = fig4_listening(true);
  ASSERT_EQ(runner::evaluate(listening, result).verdict, Verdict::kHolds);
  keep_one_trial(result.points[2]);  // H=4 uniform
  EXPECT_EQ(runner::evaluate(listening, result).verdict,
            Verdict::kNotEvaluated);
}

TEST(Claims, AbsentPointsAreNotEvaluated) {
  for (const runner::Claim& claim : runner::claims()) {
    EXPECT_EQ(runner::evaluate(claim, SweepResult{}).verdict,
              Verdict::kNotEvaluated)
        << claim.id;
  }
  // `--selector permutation` pins the fig4 grid to one policy: neither
  // fig4 claim has its points.
  const runner::Claim& uniform = claim_named("fig4.uniform_within_eq4");
  const runner::Claim& listening = claim_named("fig4.listening_below_uniform");
  SweepResult pinned = fig4_listening(true);
  for (runner::SweepPointResult& point : pinned.points) {
    point.config.selector = core::permutation_selector();
  }
  EXPECT_EQ(runner::evaluate(uniform, pinned).verdict, Verdict::kNotEvaluated);
  EXPECT_EQ(runner::evaluate(listening, pinned).verdict,
            Verdict::kNotEvaluated);

  // `--selector listening` keeps the subjects but drops their partners.
  for (runner::SweepPointResult& point : pinned.points) {
    point.config.selector = core::listening_selector();
  }
  EXPECT_EQ(runner::evaluate(listening, pinned).verdict,
            Verdict::kNotEvaluated);
}

TEST(Claims, Eq4IsReadAtEachPointsOwnSenders) {
  // Uniform loss 0.045 at H = 8: above Eq. 4 at T = 5 (0.0308), within it
  // at T = 8 (0.0533), as `--senders 8` would run it.
  const runner::Claim& uniform = claim_named("fig4.uniform_within_eq4");
  ExperimentConfig c = config(8, core::uniform_selector());
  c.senders = 8;
  SweepResult eight;
  add(eight, "H=8 uniform", c, losses_around(0.045));
  const runner::ClaimOutcome outcome = runner::evaluate(uniform, eight);
  EXPECT_EQ(outcome.verdict, Verdict::kHolds);
  ASSERT_EQ(outcome.checks.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.checks[0].bound,
                   1.0 - core::model::p_success(8, 8.0));

  eight.points[0].config.senders = 5;
  EXPECT_EQ(runner::evaluate(uniform, eight).verdict, Verdict::kFails);
}

TEST(Claims, EveryClaimFindsItsPointsInItsOwnSweep) {
  // The claim table and make_named_sweep must agree on each grid: give
  // every point of the registry grid two placeholder trials and check that
  // no claim comes out "not evaluated" for lack of subjects or partners.
  for (const runner::Claim& claim : runner::claims()) {
    SCOPED_TRACE(std::string(claim.id));
    auto spec = runner::make_named_sweep(claim.sweep);
    ASSERT_TRUE(spec.ok()) << spec.error();
    SweepResult result;
    for (const runner::SweepPoint& point : spec.value().expand()) {
      ExperimentResult trial = channel_trial(0.1, 0.5);
      trial.truth_by_size = {{24, 1}, {240, 1}, {80, 1}};
      add(result, point.label, point.config, {trial, trial});
    }
    EXPECT_NE(runner::evaluate(claim, result).verdict, Verdict::kNotEvaluated);
  }
}
