// Adversarial collision attacker: an off-path node that attacks the
// identifier channel instead of the radio channel.
//
// The fault layer's other tools model an indifferent environment (loss,
// corruption, churn); AttackerNode models an *adversary* that understands
// the AFF wire format and deliberately manufactures identifier collisions:
//
//   kBlindFlood  — every flood_interval, forge an introduction for a
//                  randomly guessed identifier plus a junk data fragment.
//                  A guess that lands on an in-flight transaction resets
//                  or corrupts its reassembly entry.
//   kEchoCollide — reactive: overhear every intro fragment addressed to
//                  the attacker's position and re-announce the same
//                  identifier as a fresh transaction (different length /
//                  checksum), hijacking the victim's reassembly entry the
//                  moment it opens.
//
// The attacker reuses the fault layer's delivery-interception seam to
// overhear traffic: it implements sim::DeliveryInterceptor, passes every
// delivery through unchanged (optionally chaining an inner FaultInjector
// so hostile channels compose), and snoops the copies addressed to its own
// node. Forged frames go out through a real radio::Radio, so attack
// traffic occupies airtime, collides, and gets faulted like any other
// traffic.
//
// Determinism: the id-guess, echo-decision, and junk-content draws each
// come from their own splitmix64-derived Xoshiro256 stream (the injector's
// per-family pattern), so toggling modes never perturbs another family's
// decisions and soaks stay jobs-invariant.
//
// The flood and echo events are not cancelled when the attacker dies, so
// it must outlive the run (an exception DESIGN.md §5e states).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "aff/wire.hpp"
#include "obs/metrics.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"
#include "sim/time.hpp"
#include "util/random.hpp"
#include "util/result.hpp"

namespace retri::fault {

enum class AttackerMode {
  kOff,          // no attacker in the experiment
  kBlindFlood,   // periodic forged intros for guessed identifiers
  kEchoCollide,  // re-announce every overheard intro's identifier
};

/// Canonical mode name ("off", "blind_flood", "echo_collide").
std::string_view to_string(AttackerMode mode) noexcept;

/// Names accepted by parse_attacker_mode, in presentation order.
std::vector<std::string_view> attacker_modes();

/// Mode registry lookup; an unknown name returns an error listing every
/// mode — CLIs and codecs surface it verbatim.
util::Result<AttackerMode, std::string> parse_attacker_mode(
    std::string_view name);

/// One attacker configuration, as plain data so experiment configs can
/// carry it and sweeps can grid over it.
struct AttackerPlan {
  AttackerMode mode = AttackerMode::kOff;
  /// kBlindFlood: time between forged guesses.
  sim::Duration flood_interval = sim::Duration::milliseconds(50);
  /// kEchoCollide: reaction delay between overhearing an intro and
  /// re-announcing its identifier.
  sim::Duration echo_delay = sim::Duration::milliseconds(1);
  /// kEchoCollide: probability an overheard intro is echoed.
  double echo_probability = 1.0;
  /// Payload bytes of each forged transaction (clamped so the forged data
  /// fragment still fits one radio frame).
  std::size_t junk_bytes = 8;

  bool active() const noexcept { return mode != AttackerMode::kOff; }
};

/// Returns `plan` unchanged or throws std::invalid_argument naming the
/// offending field. The AttackerNode constructor applies this.
AttackerPlan validated(AttackerPlan plan);

/// Point-in-time view of the attacker's tallies, built from the
/// "attacker.*" counters in the backing obs::MetricsRegistry.
struct AttackerStatsSnapshot {
  std::uint64_t intros_overheard = 0;  // intro fragments snooped off the seam
  std::uint64_t echoes_sent = 0;       // forged echo transactions
  std::uint64_t floods_sent = 0;       // forged blind-guess transactions
  std::uint64_t frames_forged = 0;     // frames handed to the radio
};

class AttackerNode final : public sim::DeliveryInterceptor {
 public:
  /// `node` must exist in the medium's topology. `wire` is the victims'
  /// wire configuration — the attacker speaks their dialect. Throws
  /// std::invalid_argument if the plan fails validated(). `hooks` wires the
  /// tallies into a shared metrics registry under "attacker.*"; default
  /// hooks fall back to a private registry so stats() works standalone.
  AttackerNode(sim::BroadcastMedium& medium, sim::NodeId node,
               AttackerPlan plan, aff::WireConfig wire, std::uint64_t seed,
               obs::Hooks hooks = {});

  /// Chains the interceptor that ran before the attacker took the medium's
  /// seam (e.g. a FaultInjector realizing a hostile channel). The attacker
  /// passes deliveries through `inner` first and snoops the survivors.
  void set_inner(sim::DeliveryInterceptor* inner) noexcept { inner_ = inner; }

  /// Arms the attacker until `until` (typically the send horizon): starts
  /// the kBlindFlood timer loop and/or opens the kEchoCollide reaction
  /// window. Without start() the attacker stays dormant.
  void start(sim::TimePoint until);

  std::vector<sim::DeliveryInterceptor::Injected> intercept(
      sim::NodeId from, sim::NodeId to,
      const util::SharedBytes& payload) override;

  const AttackerPlan& plan() const noexcept { return plan_; }
  radio::Radio& radio() noexcept { return radio_; }
  /// Snapshot of the tallies, BY VALUE.
  AttackerStatsSnapshot stats() const noexcept;

 private:
  /// Registry-backed counter handles, one per snapshot field.
  struct Counters {
    obs::Counter intros_overheard;
    obs::Counter echoes_sent;
    obs::Counter floods_sent;
    obs::Counter frames_forged;
  };

  /// One kBlindFlood step: forge a guessed transaction, reschedule.
  void flood_tick();
  /// Forges one complete transaction (intro + junk data) for `id`.
  void forge_transaction(core::TransactionId id);
  /// Examines one snooped payload; schedules an echo if it is an intro.
  void snoop(const util::SharedBytes& payload);

  AttackerPlan plan_;
  aff::WireConfig wire_;
  sim::NodeId node_;
  radio::Radio radio_;
  sim::DeliveryInterceptor* inner_ = nullptr;
  sim::TimePoint until_ = sim::TimePoint::origin();
  bool armed_ = false;
  util::Xoshiro256 guess_rng_;  // blind-flood identifier guesses
  util::Xoshiro256 echo_rng_;   // echo-probability decisions
  util::Xoshiro256 junk_rng_;   // forged payload content and checksums
  std::uint64_t next_true_seq_ = 0;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // fallback registry
  Counters counters_;
};

}  // namespace retri::fault
