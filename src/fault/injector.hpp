// FaultInjector: a FaultPlan's delivery-path faults, executed.
//
// Implements sim::DeliveryInterceptor and attaches to a BroadcastMedium
// with set_interceptor(). For each delivery that survived the medium's
// native loss checks, the injector applies, in order:
//
//   1. Gilbert–Elliott burst loss (per directed link state machine) —
//      the delivery vanishes (medium counts lost_fault);
//   2. duplication — the delivery fans out into 1 + k copies;
//   3. per copy: truncation, then payload corruption, then extra delay.
//
// Each fault family draws from its own Xoshiro256 stream, all derived from
// one seed via SplitMix64. Independent streams keep plans composable: a
// plan that only adds corruption consumes nothing from the burst stream,
// so turning one family on or off never perturbs another family's
// decisions for the same seed — the property that makes ablation pairs
// (e.g. burst vs. independent at equal average loss) directly comparable.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "sim/medium.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace retri::fault {

/// Point-in-time view of the injector's tallies, built from the "fault.*"
/// counters in the backing obs::MetricsRegistry. stats() returns one BY
/// VALUE — re-call it to observe later events.
struct FaultStatsSnapshot {
  std::uint64_t intercepted = 0;    // deliveries offered to the injector
  std::uint64_t dropped_burst = 0;  // vanished in the GE bad/good state
  std::uint64_t forwarded = 0;      // deliveries that produced >= 1 copy
  std::uint64_t copies_emitted = 0; // total copies returned to the medium
  std::uint64_t corrupted_copies = 0;
  std::uint64_t truncated_copies = 0;
  std::uint64_t delayed_copies = 0;
  // Conservation laws (asserted by the chaos harness):
  //   intercepted == dropped_burst + forwarded
  //   copies_emitted >= forwarded  (duplication only adds copies)
};

class FaultInjector final : public sim::DeliveryInterceptor {
 public:
  /// Throws std::invalid_argument if the plan fails validated(). `hooks`
  /// wires the injector's tallies into a shared metrics registry under
  /// "fault.*"; default hooks fall back to a private registry so stats()
  /// keeps working standalone.
  FaultInjector(FaultPlan plan, std::uint64_t seed, obs::Hooks hooks = {});

  std::vector<sim::DeliveryInterceptor::Injected> intercept(
      sim::NodeId from, sim::NodeId to,
      const util::SharedBytes& payload) override;

  const FaultPlan& plan() const noexcept { return plan_; }
  /// Snapshot of the tallies, BY VALUE (see FaultStatsSnapshot).
  FaultStatsSnapshot stats() const noexcept;

 private:
  /// Registry-backed counter handles, one per snapshot field.
  struct Counters {
    obs::Counter intercepted;
    obs::Counter dropped_burst;
    obs::Counter forwarded;
    obs::Counter copies_emitted;
    obs::Counter corrupted_copies;
    obs::Counter truncated_copies;
    obs::Counter delayed_copies;
  };

  /// Advances the (from, to) link's GE state and draws the loss decision.
  bool burst_lost(sim::NodeId from, sim::NodeId to);
  /// Flips bytes in place; guarantees at least one byte changes.
  void corrupt(util::Bytes& frame);

  FaultPlan plan_;
  util::Xoshiro256 burst_rng_;
  util::Xoshiro256 corrupt_rng_;
  util::Xoshiro256 truncate_rng_;
  util::Xoshiro256 duplicate_rng_;
  util::Xoshiro256 delay_rng_;
  // GE channel state per directed link, keyed (from << 32) | to.
  // false = good, true = bad.
  std::unordered_map<std::uint64_t, bool> link_bad_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // fallback registry
  Counters counters_;
};

}  // namespace retri::fault
