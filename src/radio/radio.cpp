#include "radio/radio.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/validate.hpp"

namespace retri::radio {

RadioConfig validated(RadioConfig config) {
  util::Validator v{"RadioConfig"};
  v.at_least("max_frame_bytes", config.max_frame_bytes, 1);
  v.positive("bitrate_bps", config.bitrate_bps);
  v.non_negative_seconds("interframe_gap",
                         config.interframe_gap.to_seconds());
  v.non_negative_seconds("max_backoff", config.max_backoff.to_seconds());
  return config;
}

Radio::Radio(sim::BroadcastMedium& medium, sim::NodeId node, RadioConfig config,
             EnergyModel energy_model, std::uint64_t seed)
    : medium_(medium),
      node_(node),
      config_(validated(config)),
      energy_(energy_model),
      rng_(seed) {
  assert(config_.bitrate_bps > 0.0);
  medium_.attach(node_, [this](sim::NodeId from, const util::Bytes& payload) {
    on_medium_rx(from, payload);
  });
}

Radio::~Radio() {
  pending_.cancel();
  medium_.attach(node_, nullptr);
}

sim::Duration Radio::airtime(std::size_t payload_bytes) const noexcept {
  const double bits = static_cast<double>(payload_bytes * 8 +
                                          energy_.model().per_frame_overhead_bits);
  return sim::Duration::from_seconds(bits / config_.bitrate_bps);
}

bool Radio::send(util::BytesView frame) {
  if (frame.size() > config_.max_frame_bytes) {
    ++counters_.frames_rejected;
    return false;
  }
  if (queued_ == ring_.size()) grow_ring();
  ring_[(head_ + queued_) % ring_.size()].assign(frame.begin(), frame.end());
  ++queued_;
  if (!busy_) start_next();
  return true;
}

bool Radio::send(util::Bytes frame) { return send(util::BytesView(frame)); }

void Radio::grow_ring() {
  // Eight slots hold all seven frames of the paper's instrumented 80-byte
  // packet on the RPC radio, so the usual first growth is the last.
  std::vector<util::Bytes> grown(std::max<std::size_t>(8, 2 * ring_.size()));
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
  }
  ring_ = std::move(grown);
  head_ = 0;
}

void Radio::transmit_front() {
  assert(queued_ > 0);
  const util::Bytes& frame = ring_[head_];
  const std::uint64_t bits = frame.size() * 8;
  const sim::Duration air = airtime(frame.size());
  ++counters_.frames_sent;
  counters_.payload_bits_sent += bits;
  energy_.on_tx(bits);
  medium_.transmit(node_, util::BytesView(frame), air);
  --queued_;
  head_ = queued_ == 0 ? 0 : (head_ + 1) % ring_.size();

  pending_ = medium_.simulator().schedule_after(
      air + config_.interframe_gap, [this]() {
        busy_ = false;
        start_next();
      });
}

void Radio::start_next() {
  assert(!busy_);
  if (queued_ == 0) return;
  busy_ = true;

  sim::Duration backoff{};
  if (config_.max_backoff > sim::Duration{}) {
    backoff = sim::Duration::nanoseconds(static_cast<std::int64_t>(
        rng_.below(static_cast<std::uint64_t>(config_.max_backoff.ns()))));
  }

  pending_ =
      simulator().schedule_after(backoff, [this]() { transmit_front(); });
}

void Radio::on_medium_rx(sim::NodeId from, const util::Bytes& payload) {
  if (!listening_) {
    ++counters_.frames_missed_asleep;
    return;
  }
  ++counters_.frames_received;
  counters_.payload_bits_received += payload.size() * 8;
  energy_.on_rx(payload.size() * 8);
  if (rx_callback_) rx_callback_(from, payload);
}

}  // namespace retri::radio
