// Duty-cycled listening.
//
// §3.2 notes that listening-based identifier avoidance competes with the
// "significant power requirements of running a radio": nodes that sleep
// their receivers hear fewer identifiers and avoid less effectively. The
// DutyCycleController toggles a radio's receiver on a fixed period with a
// configurable awake fraction and per-node phase, and accounts the awake
// time so experiments can charge idle-listening energy precisely.
#pragma once

#include <cstdint>

#include "radio/radio.hpp"
#include "sim/time.hpp"

namespace retri::radio {

struct DutyCycleConfig {
  /// One full sleep/wake cycle.
  sim::Duration period = sim::Duration::milliseconds(100);
  /// Fraction of the period the receiver is on, in [0, 1].
  double on_fraction = 1.0;
  /// Offset of this node's cycle start; staggering phases models
  /// unsynchronized sleep schedules.
  sim::Duration phase = sim::Duration::nanoseconds(0);
  /// Cycling ceases (receiver left on) at this time; bounds the event
  /// queue so Simulator::run() terminates. Default: run "forever".
  sim::TimePoint stop_at =
      sim::TimePoint::origin() + sim::Duration::seconds(3'000'000'000);
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The DutyCycleController constructor applies this.
DutyCycleConfig validated(DutyCycleConfig config);

class DutyCycleController {
 public:
  /// Takes control of radio.set_listening(). With on_fraction >= 1 the
  /// radio listens continuously and no events are scheduled; with
  /// on_fraction <= 0 the receiver stays off permanently.
  DutyCycleController(Radio& radio, DutyCycleConfig config);
  ~DutyCycleController();

  DutyCycleController(const DutyCycleController&) = delete;
  DutyCycleController& operator=(const DutyCycleController&) = delete;

  /// Stops toggling and leaves the receiver on.
  void stop();

  /// Total time the receiver has been awake so far (for energy accounting:
  /// idle energy = model.idle_nw * awake_time).
  sim::Duration awake_time() const;

  const DutyCycleConfig& config() const noexcept { return config_; }

 private:
  void schedule_wake();
  void schedule_sleep();
  void note_transition(bool now_listening);

  Radio& radio_;
  DutyCycleConfig config_;
  sim::Duration on_span_;
  bool running_ = false;
  sim::TimePoint last_transition_;
  sim::Duration accumulated_awake_{};
  bool awake_ = true;
  sim::EventHandle timer_;  // the one pending wake or sleep
};

}  // namespace retri::radio
