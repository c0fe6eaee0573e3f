#include "radio/duty_cycle.hpp"

#include <algorithm>
#include <cassert>

#include "util/validate.hpp"

namespace retri::radio {

DutyCycleConfig validated(DutyCycleConfig config) {
  util::Validator v{"DutyCycleConfig"};
  v.positive_seconds("period", config.period.to_seconds());
  v.probability("on_fraction", config.on_fraction);
  v.non_negative_seconds("phase", config.phase.to_seconds());
  return config;
}

DutyCycleController::DutyCycleController(Radio& radio, DutyCycleConfig config)
    : radio_(radio),
      config_(validated(config)),
      on_span_(sim::Duration::from_seconds(
          config.period.to_seconds() * std::clamp(config.on_fraction, 0.0, 1.0))),
      last_transition_(radio.simulator().now()) {
  assert(config_.period > sim::Duration::nanoseconds(0));

  if (config_.on_fraction >= 1.0) {
    radio_.set_listening(true);
    awake_ = true;
    return;  // continuous listening: nothing to schedule
  }
  running_ = true;
  if (config_.on_fraction <= 0.0) {
    radio_.set_listening(false);
    note_transition(false);
    running_ = false;  // permanently off: nothing further to schedule
    return;
  }
  // Start asleep until this node's phase, then run wake/sleep cycles.
  radio_.set_listening(false);
  note_transition(false);
  timer_ = radio_.simulator().schedule_after(config_.phase, [this]() {
    if (!running_) return;
    radio_.set_listening(true);
    note_transition(true);
    schedule_sleep();
  });
}

DutyCycleController::~DutyCycleController() { timer_.cancel(); }

void DutyCycleController::note_transition(bool now_listening) {
  const sim::TimePoint now = radio_.simulator().now();
  if (awake_) accumulated_awake_ += now - last_transition_;
  last_transition_ = now;
  awake_ = now_listening;
}

sim::Duration DutyCycleController::awake_time() const {
  sim::Duration total = accumulated_awake_;
  if (awake_) total += radio_.simulator().now() - last_transition_;
  return total;
}

void DutyCycleController::stop() {
  if (!running_ && radio_.listening()) return;
  running_ = false;
  radio_.set_listening(true);
  note_transition(true);
}

void DutyCycleController::schedule_sleep() {
  if (radio_.simulator().now() >= config_.stop_at) {
    stop();
    return;
  }
  timer_ = radio_.simulator().schedule_after(on_span_, [this]() {
    if (!running_) return;
    radio_.set_listening(false);
    note_transition(false);
    schedule_wake();
  });
}

void DutyCycleController::schedule_wake() {
  if (radio_.simulator().now() >= config_.stop_at) {
    stop();
    return;
  }
  timer_ = radio_.simulator().schedule_after(
      config_.period - on_span_, [this]() {
        if (!running_) return;
        radio_.set_listening(true);
        note_transition(true);
        schedule_sleep();
      });
}

}  // namespace retri::radio
