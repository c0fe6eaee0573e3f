#include "apps/workload.hpp"

#include <cassert>

namespace retri::apps {

PeriodicWorkload::PeriodicWorkload(sim::Duration period, std::size_t packet_bytes,
                                   sim::Duration jitter)
    : period_(period), jitter_(jitter), packet_bytes_(packet_bytes) {
  assert(period > sim::Duration{});
  assert(jitter >= sim::Duration{} && jitter < period);
}

SendPlan PeriodicWorkload::next(util::Xoshiro256& rng) {
  sim::Duration gap = period_;
  if (jitter_ > sim::Duration{}) {
    const auto span = static_cast<std::uint64_t>(jitter_.ns()) * 2;
    const auto offset = static_cast<std::int64_t>(rng.below(span + 1)) - jitter_.ns();
    gap = gap + sim::Duration::nanoseconds(offset);
  }
  return {gap, packet_bytes_};
}

PoissonWorkload::PoissonWorkload(sim::Duration mean_interarrival,
                                 std::size_t packet_bytes)
    : mean_(mean_interarrival), packet_bytes_(packet_bytes) {
  assert(mean_interarrival > sim::Duration{});
}

SendPlan PoissonWorkload::next(util::Xoshiro256& rng) {
  return {sim::Duration::from_seconds(rng.exponential(mean_.to_seconds())),
          packet_bytes_};
}

BurstyWorkload::BurstyWorkload(std::size_t burst_len, sim::Duration intra_gap,
                               sim::Duration inter_burst_mean,
                               std::size_t packet_bytes)
    : burst_len_(burst_len),
      intra_gap_(intra_gap),
      inter_burst_mean_(inter_burst_mean),
      packet_bytes_(packet_bytes) {
  assert(burst_len >= 1);
}

SendPlan BurstyWorkload::next(util::Xoshiro256& rng) {
  if (position_ == 0) {
    position_ = burst_len_ - 1;
    return {sim::Duration::from_seconds(
                rng.exponential(inter_burst_mean_.to_seconds())),
            packet_bytes_};
  }
  --position_;
  return {intra_gap_, packet_bytes_};
}

SaturatingWorkload::SaturatingWorkload(std::size_t packet_bytes)
    : packet_bytes_(packet_bytes) {}

SendPlan SaturatingWorkload::next(util::Xoshiro256&) {
  return {sim::Duration::nanoseconds(0), packet_bytes_};
}

TrafficSource::TrafficSource(sim::Simulator& sim, aff::AffDriver& driver,
                             std::unique_ptr<Workload> workload,
                             std::uint64_t seed, std::size_t max_backlog_frames)
    : sim_(sim),
      driver_(driver),
      workload_(std::move(workload)),
      rng_(seed),
      max_backlog_frames_(max_backlog_frames) {
  assert(workload_ != nullptr);
}

TrafficSource::~TrafficSource() { poll_.cancel(); }

void TrafficSource::start(sim::TimePoint until) {
  poll_.cancel();
  until_ = until;
  running_ = true;
  // The first send happens after the workload's first gap, like every
  // subsequent one; callers wanting phase offsets seed/jitter the workload.
  pending_ = workload_->next(rng_);
  schedule_pending(pending_.gap);
}

void TrafficSource::stop() { running_ = false; }

void TrafficSource::schedule_pending(sim::Duration gap) {
  poll_ = sim_.schedule_after(gap, [this]() { poll(); });
}

void TrafficSource::poll() {
  if (!running_ || sim_.now() >= until_) return;

  if (driver_.radio().queue_depth() > max_backlog_frames_) {
    // Radio is backlogged: wait roughly one frame slot and retry without
    // consuming a new plan, which paces a saturating workload to exactly
    // the channel rate.
    const sim::Duration slot =
        driver_.radio().airtime(driver_.radio().config().max_frame_bytes) +
        driver_.radio().config().interframe_gap;
    schedule_pending(slot);
    return;
  }

  fire();
  pending_ = workload_->next(rng_);
  schedule_pending(pending_.gap);
}

void TrafficSource::fire() {
  util::fill_random_payload(payload_, pending_.size,
                            rng_.next() ^ (payload_seq_ << 1));
  ++payload_seq_;
  if (driver_.send_packet(payload_)) {
    ++packets_sent_;
    bytes_sent_ += pending_.size;
    if (observer_) observer_(payload_);
  }
}

}  // namespace retri::apps
