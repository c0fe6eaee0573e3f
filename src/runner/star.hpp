// The §5.1 star, built in one place: the node stacks every star-shaped
// trial shares, and the seed scheme that keeps their random streams apart.
//
// Receiver node 0 and senders 1..N each run Radio → IdSelector → AffDriver,
// every sender feeding its driver from a TrafficSource. Around them sit the
// BroadcastMedium, an optional FaultInjector and AttackerNode on the
// medium's interception seam, sender churn, and duty-cycled sender
// listening. run_experiment builds its star from an ExperimentConfig
// (star_spec); a chaos trial starts from the same spec and swaps in a
// randomized channel, pacing and subsystem seeds. Nothing else builds these
// nodes, so the two can never drift apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "aff/driver.hpp"
#include "apps/workload.hpp"
#include "core/selector.hpp"
#include "fault/attacker.hpp"
#include "fault/churn.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "radio/duty_cycle.hpp"
#include "radio/radio.hpp"
#include "runner/experiment.hpp"
#include "sim/engine.hpp"
#include "sim/medium.hpp"

namespace retri::runner {

/// Everything Star needs. `config` supplies the nodes, their selector and
/// packet sizes, the timing, the attacker, duty cycling, and the node seed
/// scheme; its channel and loss_rate are already resolved into `medium`
/// and `faults`, and drain_extra is the caller's business.
struct StarSpec {
  ExperimentConfig config;
  sim::MediumConfig medium;
  /// Fault plan run by a FaultInjector on the medium; none when empty.
  std::optional<fault::FaultPlan> faults;
  /// Mean interarrival of Poisson-paced senders; zero (the default) keeps
  /// the paper's saturating senders.
  sim::Duration poisson_mean;
  sim::Duration reassembly_timeout = aff::AffDriverConfig{}.reassembly_timeout;
  std::size_t max_reassembly_entries =
      aff::AffDriverConfig{}.max_reassembly_entries;
  std::uint64_t medium_seed = 0;
  std::uint64_t injector_seed = 0;
  /// Seeds the ChurnSchedule, built when `faults` carries active churn.
  std::uint64_t churn_seed = 0;
  /// Run ground-truth reassembly at the senders too. The receiver always
  /// runs it; run_experiment reads truth there only, so senders skip it.
  /// The chaos trial sets this: its bounded-state probe reads every
  /// node's truth table.
  bool sender_truth = false;
};

/// run_experiment's star for `config`: the "independent" channel becomes
/// the medium's i.i.d. loss, "burst" and "chaos" become fault plans, and
/// the medium, injector and churn seeds derive from config.seed.
StarSpec star_spec(const ExperimentConfig& config);

/// One built star, wired and started: sources run until send_duration, as
/// do the attacker, churn and duty cycling. The caller attaches handlers,
/// runs `sim`, and reads the parts. Members are built in declaration order
/// and destroyed in reverse, so every component outlives its users.
struct Star {
  struct Node {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<aff::AffDriver> driver;
    std::unique_ptr<apps::TrafficSource> source;  // null at the receiver
  };

  /// `hooks` reaches the medium, injector, attacker and every driver.
  explicit Star(const StarSpec& spec, obs::Hooks hooks = {});

  Star(const Star&) = delete;
  Star& operator=(const Star&) = delete;

  sim::Simulator sim;
  sim::BroadcastMedium medium;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::AttackerNode> attacker;
  Node receiver;
  std::vector<Node> senders;
  std::unique_ptr<fault::ChurnSchedule> churn;
  std::vector<std::unique_ptr<radio::DutyCycleController>> duty;
};

}  // namespace retri::runner
