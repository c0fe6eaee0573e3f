// Interest reinforcement over RETRI identifiers (§6, first bullet).
//
// Sensors broadcast readings, each tagged with a fresh RETRI identifier —
// the reading *is* the transaction. A sink that finds a reading interesting
// broadcasts a reinforcement naming only that identifier: "Whoever just sent
// data with Identifier 4, send more of that." No sensor address is ever
// transmitted; the identifier carries exactly enough context to reference
// the recent reading.
//
// An identifier collision here means two sensors recently used the same id;
// a reinforcement for it is claimed by both, so one sensor speeds up
// spuriously. The wire carries an instrumentation-only sensor uid (never
// consulted by the protocol) so experiments can count such false claims —
// the same methodology as the §5.1 driver.
//
// Wire (big-endian):
//   reading:   [0x31][id:ceil(H/8)][uid:4][value:2]
//   reinforce: [0x32][id:ceil(H/8)][uid:4]   (uid = intended target, stats only)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "core/selector.hpp"
#include "radio/radio.hpp"
#include "sim/time.hpp"

namespace retri::apps {

struct InterestWire {
  unsigned id_bits = 8;
};

struct SensorConfig {
  InterestWire wire;
  /// Base interval between readings.
  sim::Duration base_period = sim::Duration::seconds(2);
  /// Interval while reinforced (must be <= base_period).
  sim::Duration reinforced_period = sim::Duration::milliseconds(500);
  /// How long one reinforcement keeps the fast rate.
  sim::Duration reinforcement_ttl = sim::Duration::seconds(5);
  /// Readings whose ids are remembered as "mine, recent".
  std::size_t recent_ids = 8;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The InterestSensor constructor applies this.
SensorConfig validated(SensorConfig config);

struct SensorStats {
  std::uint64_t readings_sent = 0;
  std::uint64_t reinforcements_claimed = 0;  // id matched one of ours
  std::uint64_t false_claims = 0;            // ...but it targeted another sensor
};

/// A sensor that periodically broadcasts a reading from a caller-supplied
/// sampling function and reacts to reinforcements.
class InterestSensor {
 public:
  using SampleFn = std::function<std::uint16_t()>;

  InterestSensor(radio::Radio& radio, core::IdSelector& selector,
                 SensorConfig config, std::uint32_t uid, SampleFn sample);
  ~InterestSensor();

  InterestSensor(const InterestSensor&) = delete;
  InterestSensor& operator=(const InterestSensor&) = delete;

  void start(sim::TimePoint until);

  bool reinforced() const;
  const SensorStats& stats() const noexcept { return stats_; }
  std::uint32_t uid() const noexcept { return uid_; }

 private:
  void tick();
  void send_reading();
  void on_frame(const util::Bytes& frame);

  radio::Radio& radio_;
  core::IdSelector& selector_;
  SensorConfig config_;
  std::uint32_t uid_;
  SampleFn sample_;
  sim::TimePoint until_;
  sim::TimePoint reinforced_until_;
  std::deque<core::TransactionId> recent_ids_;
  SensorStats stats_;
  sim::EventHandle tick_timer_;  // the pending reading tick
};

struct SinkConfig {
  InterestWire wire;
  /// Readings with value >= threshold are interesting and get reinforced.
  std::uint16_t interest_threshold = 0x8000;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The InterestSink constructor applies this.
SinkConfig validated(SinkConfig config);

struct SinkStats {
  std::uint64_t readings_heard = 0;
  std::uint64_t reinforcements_sent = 0;
};

/// A sink that reinforces interesting readings by identifier alone.
class InterestSink {
 public:
  using ReadingFn =
      std::function<void(core::TransactionId id, std::uint16_t value)>;

  InterestSink(radio::Radio& radio, SinkConfig config);
  ~InterestSink();

  InterestSink(const InterestSink&) = delete;
  InterestSink& operator=(const InterestSink&) = delete;

  /// Optional observer for every reading heard.
  void set_reading_handler(ReadingFn fn) { on_reading_ = std::move(fn); }

  const SinkStats& stats() const noexcept { return stats_; }

 private:
  void on_frame(const util::Bytes& frame);

  radio::Radio& radio_;
  SinkConfig config_;
  ReadingFn on_reading_;
  SinkStats stats_;
};

}  // namespace retri::apps
