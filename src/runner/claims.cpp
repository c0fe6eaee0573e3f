#include "runner/claims.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <utility>

#include "core/model.hpp"

namespace retri::runner {
namespace {

// --- statistics: one outcome per trial of a point --------------------------

template <typename Outcome>
stats::TrialSet per_trial(const SweepPointResult& point, Outcome outcome) {
  stats::TrialSet set;
  for (const ExperimentResult& trial : point.trials) set.add(outcome(trial));
  return set;
}

/// The interval retri_bench's table prints as "ci95 lo" / "ci95 hi".
stats::TrialSet collision_loss(const SweepPointResult& point) {
  return point.summary.collision_loss;
}

stats::TrialSet frame_loss(const SweepPointResult& point) {
  return per_trial(point, [](const ExperimentResult& trial) {
    return trial.observed_frame_loss();
  });
}

/// Ground-truth packets delivered per packet offered: what the channel
/// alone lets through, before any identifier collision.
stats::TrialSet truth_delivery(const SweepPointResult& point) {
  return per_trial(point, [](const ExperimentResult& trial) {
    return trial.packets_offered == 0
               ? 0.0
               : static_cast<double>(trial.truth_delivered) /
                     static_cast<double>(trial.packets_offered);
  });
}

std::vector<std::size_t> packet_sizes(const ExperimentConfig& config) {
  if (config.per_sender_packet_bytes.empty()) return {config.packet_bytes};
  return config.per_sender_packet_bytes;
}

/// Loss of one packet-size class, over the trials in which that class had
/// ground-truth deliveries (class_loss reads 0 for an absent class).
stats::TrialSet class_loss(const SweepPointResult& point, std::size_t size) {
  stats::TrialSet set;
  for (const ExperimentResult& trial : point.trials) {
    const auto truth = trial.truth_by_size.find(size);
    if (truth != trial.truth_by_size.end() && truth->second > 0) {
      set.add(trial.class_loss(size));
    }
  }
  return set;
}

stats::TrialSet shortest_class_loss(const SweepPointResult& point) {
  const std::vector<std::size_t> sizes = packet_sizes(point.config);
  return class_loss(point, *std::min_element(sizes.begin(), sizes.end()));
}

stats::TrialSet longest_class_loss(const SweepPointResult& point) {
  const std::vector<std::size_t> sizes = packet_sizes(point.config);
  return class_loss(point, *std::max_element(sizes.begin(), sizes.end()));
}

// --- subjects --------------------------------------------------------------

bool uses(const ExperimentConfig& config, const core::SelectorSpec& spec) {
  return core::describe(config.selector) == core::describe(spec);
}

bool is_uniform(const ExperimentConfig& config) {
  return uses(config, core::uniform_selector());
}

bool is_listening(const ExperimentConfig& config) {
  return uses(config, core::listening_selector());
}

bool is_listening_from_h3(const ExperimentConfig& config) {
  return is_listening(config) && config.id_bits >= 3;
}

bool has_mixed_lengths(const ExperimentConfig& config) {
  const std::vector<std::size_t> sizes = packet_sizes(config);
  return std::adjacent_find(sizes.begin(), sizes.end(),
                            std::not_equal_to<>()) != sizes.end();
}

bool is_deaf_listening(const ExperimentConfig& config) {
  return is_listening(config) && config.sender_listen_duty == 0.0;
}

bool is_duty_cycled_listening(const ExperimentConfig& config) {
  return is_listening(config) && config.sender_listen_duty > 0.0;
}

bool every_point(const ExperimentConfig&) { return true; }

bool is_burst(const ExperimentConfig& config) {
  return config.channel == Channel::kBurst;
}

bool is_unattacked_permutation(const ExperimentConfig& config) {
  return uses(config, core::permutation_selector()) &&
         config.attacker.mode == fault::AttackerMode::kOff;
}

bool is_echoed_uniform(const ExperimentConfig& config) {
  return is_uniform(config) &&
         config.attacker.mode == fault::AttackerMode::kEchoCollide;
}

// --- references ------------------------------------------------------------

/// Eq. 4's loss at the point's own identifier width and T = its senders.
double eq4_loss(const ExperimentConfig& config) {
  return 1.0 - core::model::p_success(config.id_bits,
                                      static_cast<double>(config.senders));
}

double configured_loss_rate(const ExperimentConfig& config) {
  return config.loss_rate;
}

void to_uniform(ExperimentConfig& config) {
  config.selector = core::uniform_selector();
}

void to_deaf(ExperimentConfig& config) { config.sender_listen_duty = 0.0; }

void to_independent(ExperimentConfig& config) {
  config.channel = Channel::kIndependent;
}

void to_unattacked(ExperimentConfig& config) {
  config.attacker.mode = fault::AttackerMode::kOff;
}

/// True when `a` and `b` sit at the same grid coordinates: every field
/// SweepSpec::expand sets from an axis. Seeds always differ between points.
bool same_coordinates(const ExperimentConfig& a, const ExperimentConfig& b) {
  return a.id_bits == b.id_bits && uses(a, b.selector) &&
         a.attacker.mode == b.attacker.mode && a.senders == b.senders &&
         a.sender_listen_duty == b.sender_listen_duty &&
         a.density_model == b.density_model && a.channel == b.channel &&
         a.loss_rate == b.loss_rate;
}

const SweepPointResult* find_point(const SweepResult& result,
                                   const ExperimentConfig& coordinates) {
  for (const SweepPointResult& point : result.points) {
    if (same_coordinates(point.config, coordinates)) return &point;
  }
  return nullptr;
}

ClaimCheck compare(const std::string& at, stats::Interval a, Relation relation,
                   stats::Interval b) {
  ClaimCheck check{at, 0.0, 0.0, relation};
  switch (relation) {
    case Relation::kBelow:
      check.measured = a.hi;
      check.bound = b.lo;
      break;
    case Relation::kAbove:
    case Relation::kNotAbove:
      check.measured = a.lo;
      check.bound = b.hi;
      break;
    case Relation::kOverlaps:
      // ci95 is symmetric about the mean.
      check.measured = std::abs((a.lo + a.hi) - (b.lo + b.hi)) / 2.0;
      check.bound = (a.width() + b.width()) / 2.0;
      break;
  }
  return check;
}

// Sections are ASCII so stats::Table keeps its columns aligned.
const Claim kClaims[] = {
    {"fig4.uniform_within_eq4", "5.1", "fig4",
     "uniform loss ci95.lo <= Eq. 4, every H", is_uniform, collision_loss,
     Relation::kNotAbove, eq4_loss, nullptr, nullptr},
    {"fig4.listening_below_uniform", "5.1", "fig4",
     "listening loss ci95.hi < uniform ci95.lo, every H >= 3",
     is_listening_from_h3, collision_loss, Relation::kBelow, nullptr,
     to_uniform, collision_loss},
    {"hidden_terminal.listening_matches_uniform", "3.2", "hidden_terminal",
     "listening and uniform loss intervals overlap, every H", is_listening,
     collision_loss, Relation::kOverlaps, nullptr, to_uniform,
     collision_loss},
    {"txn_lengths.long_class_loses_more", "4.1", "txn_lengths",
     "longest-class loss ci95.lo > shortest-class ci95.hi, every H",
     has_mixed_lengths, longest_class_loss, Relation::kAbove, nullptr,
     nullptr, shortest_class_loss},
    {"duty_cycle.deaf_within_eq4", "3.2", "duty_cycle",
     "q = 0 listening loss ci95.lo <= Eq. 4", is_deaf_listening,
     collision_loss, Relation::kNotAbove, eq4_loss, nullptr, nullptr},
    {"duty_cycle.listening_below_deaf", "3.2", "duty_cycle",
     "loss ci95.hi < q = 0 loss ci95.lo, every q > 0",
     is_duty_cycled_listening, collision_loss, Relation::kBelow, nullptr,
     to_deaf, collision_loss},
    {"density_estimators.below_eq4", "8", "density_estimators",
     "listening loss ci95.hi < Eq. 4, every estimator and H", is_listening,
     collision_loss, Relation::kBelow, eq4_loss, nullptr, nullptr},
    {"burst_loss.frame_loss_calibrated", "ours", "burst_loss",
     "frame-loss ci95 contains the configured rate, every point",
     every_point, frame_loss, Relation::kOverlaps, configured_loss_rate,
     nullptr, nullptr},
    {"burst_loss.burst_delivers_more", "ours", "burst_loss",
     "burst truth delivery ci95.lo > independent ci95.hi, every rate",
     is_burst, truth_delivery, Relation::kAbove, nullptr, to_independent,
     truth_delivery},
    {"selectors.permutation_no_worse", "ours", "selectors",
     "unattacked permutation loss ci95.lo <= uniform ci95.hi, every T",
     is_unattacked_permutation, collision_loss, Relation::kNotAbove, nullptr,
     to_uniform, collision_loss},
    {"selectors.echo_raises_uniform_loss", "ours", "selectors",
     "uniform loss ci95.lo under echo_collide > unattacked ci95.hi, every T",
     is_echoed_uniform, collision_loss, Relation::kAbove, nullptr,
     to_unattacked, collision_loss},
};

}  // namespace

bool ClaimCheck::holds() const noexcept {
  switch (relation) {
    case Relation::kBelow:
      return measured < bound;
    case Relation::kAbove:
      return measured > bound;
    case Relation::kNotAbove:
    case Relation::kOverlaps:
      return measured <= bound;
  }
  return false;
}

double ClaimCheck::margin() const noexcept {
  return relation == Relation::kAbove ? measured - bound : bound - measured;
}

std::string_view to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kHolds:
      return "holds";
    case Verdict::kFails:
      return "FAILS";
    case Verdict::kNotEvaluated:
      return "not evaluated";
  }
  return "?";
}

const ClaimCheck* ClaimOutcome::tightest() const noexcept {
  const auto it = std::min_element(
      checks.begin(), checks.end(),
      [](const ClaimCheck& a, const ClaimCheck& b) {
        return a.margin() < b.margin();
      });
  return it == checks.end() ? nullptr : &*it;
}

std::span<const Claim> claims() { return kClaims; }

ClaimOutcome evaluate(const Claim& claim, const SweepResult& result) {
  // Any early return leaves the outcome "not evaluated": an interval from
  // one trial has zero width, and a missing partner leaves nothing to
  // compare, so neither can support a claim.
  ClaimOutcome not_evaluated;
  std::vector<ClaimCheck> checks;
  for (const SweepPointResult& point : result.points) {
    if (!claim.subject(point.config)) continue;
    const stats::TrialSet subject = claim.statistic(point);
    if (subject.trials() < 2) return not_evaluated;
    stats::Interval reference;
    if (claim.model != nullptr) {
      const double value = claim.model(point.config);
      reference = {value, value};
    } else {
      const SweepPointResult* partner = &point;
      if (claim.to_partner != nullptr) {
        ExperimentConfig coordinates = point.config;
        claim.to_partner(coordinates);
        partner = find_point(result, coordinates);
        if (partner == nullptr) return not_evaluated;
      }
      const stats::TrialSet other = claim.partner_statistic(*partner);
      if (other.trials() < 2) return not_evaluated;
      reference = other.ci95();
    }
    checks.push_back(
        compare(point.label, subject.ci95(), claim.relation, reference));
  }
  if (checks.empty()) return not_evaluated;

  ClaimOutcome outcome;
  outcome.verdict = std::all_of(checks.begin(), checks.end(),
                                [](const ClaimCheck& c) { return c.holds(); })
                        ? Verdict::kHolds
                        : Verdict::kFails;
  outcome.checks = std::move(checks);
  return outcome;
}

}  // namespace retri::runner
