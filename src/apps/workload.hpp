// Sensor-network workload generators.
//
// The paper's traffic assumptions (§2.3): nodes normally transmit small
// periodic status messages, occasionally larger ones; the validation
// experiment (§5.1) instead saturates the channel with a continuous stream
// of fixed-size packets. Each assumption is a Workload here:
//
//   PeriodicWorkload   - fixed-size readings on a (jittered) period
//   PoissonWorkload    - memoryless arrivals (event detections)
//   BurstyWorkload     - quiet spells punctuated by back-to-back bursts
//   SaturatingWorkload - the §5.1 continuous stream
//
// TrafficSource binds a workload to an AFF driver on the simulator and
// paces sends so the radio queue stays bounded (a saturating source sends
// exactly as fast as the radio drains, like the real blocking driver).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "aff/driver.hpp"
#include "sim/engine.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace retri::apps {

/// One generated send: wait `gap`, then send `size` bytes.
struct SendPlan {
  sim::Duration gap;
  std::size_t size;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The next packet to send, relative to the previous one.
  virtual SendPlan next(util::Xoshiro256& rng) = 0;
};

/// Fixed-size packets every `period`, with optional uniform jitter of
/// +/- `jitter` (clamped so the gap stays positive).
class PeriodicWorkload final : public Workload {
 public:
  PeriodicWorkload(sim::Duration period, std::size_t packet_bytes,
                   sim::Duration jitter = sim::Duration::nanoseconds(0));
  SendPlan next(util::Xoshiro256& rng) override;

 private:
  sim::Duration period_;
  sim::Duration jitter_;
  std::size_t packet_bytes_;
};

/// Exponentially distributed interarrival times with the given mean.
class PoissonWorkload final : public Workload {
 public:
  PoissonWorkload(sim::Duration mean_interarrival, std::size_t packet_bytes);
  SendPlan next(util::Xoshiro256& rng) override;

 private:
  sim::Duration mean_;
  std::size_t packet_bytes_;
};

/// Bursts of `burst_len` packets sent `intra_gap` apart, separated by an
/// exponential quiet time with mean `inter_burst_mean`.
class BurstyWorkload final : public Workload {
 public:
  BurstyWorkload(std::size_t burst_len, sim::Duration intra_gap,
                 sim::Duration inter_burst_mean, std::size_t packet_bytes);
  SendPlan next(util::Xoshiro256& rng) override;

 private:
  std::size_t burst_len_;
  sim::Duration intra_gap_;
  sim::Duration inter_burst_mean_;
  std::size_t packet_bytes_;
  std::size_t position_ = 0;
};

/// Zero-gap packets: TrafficSource's queue pacing turns this into "send as
/// fast as the radio drains" — the paper's continuous stream.
class SaturatingWorkload final : public Workload {
 public:
  explicit SaturatingWorkload(std::size_t packet_bytes);
  SendPlan next(util::Xoshiro256& rng) override;

 private:
  std::size_t packet_bytes_;
};

/// Drives an AffDriver with a Workload until a deadline.
class TrafficSource {
 public:
  /// Keeps at most `max_backlog_frames` frames queued in the radio; when the
  /// queue is fuller, the source waits for it to drain before sending more.
  /// The default of 0 models the paper's blocking driver: the next packet's
  /// identifier is selected only once the previous packet is fully on the
  /// air, so a listening selector's avoid-set is fresh at selection time.
  /// Larger backlogs pipeline packets (higher throughput) at the cost of
  /// selecting identifiers against stale listening state.
  TrafficSource(sim::Simulator& sim, aff::AffDriver& driver,
                std::unique_ptr<Workload> workload, std::uint64_t seed,
                std::size_t max_backlog_frames = 0);
  /// Cancels the pending poll, so a source destroyed mid-run fires nothing.
  ~TrafficSource();

  TrafficSource(const TrafficSource&) = delete;
  TrafficSource& operator=(const TrafficSource&) = delete;

  /// Starts generating, replacing any earlier start; no sends are initiated
  /// at or after `until`.
  void start(sim::TimePoint until);
  void stop();

  /// Observes every successfully sent packet's payload (after the driver
  /// accepted it), as a view valid only during the call: the source reuses
  /// one payload buffer. The chaos harness uses this to record ground-truth
  /// offered content for delivery-subset invariants.
  using PacketObserver = std::function<void(util::BytesView)>;
  void set_packet_observer(PacketObserver observer) {
    observer_ = std::move(observer);
  }

  std::uint64_t packets_sent() const noexcept { return packets_sent_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

 private:
  void schedule_pending(sim::Duration gap);
  /// The pending poll: sends the planned packet if the radio has room.
  void poll();
  void fire();

  sim::Simulator& sim_;
  aff::AffDriver& driver_;
  std::unique_ptr<Workload> workload_;
  util::Xoshiro256 rng_;
  std::size_t max_backlog_frames_;
  sim::TimePoint until_;
  SendPlan pending_{};
  PacketObserver observer_;
  bool running_ = false;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t payload_seq_ = 0;
  util::Bytes payload_;  // refilled for every packet
  sim::EventHandle poll_;  // the single pending poll
};

}  // namespace retri::apps
