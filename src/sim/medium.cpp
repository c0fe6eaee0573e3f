#include "sim/medium.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/validate.hpp"

namespace retri::sim {

namespace {

/// Frame-size histogram buckets (bytes). AFF frames on the RPC radios are
/// small — intro frames ~16 bytes, data frames up to the fragment payload —
/// so fine buckets at the low end tell the real story.
const std::vector<double> kFrameBytesBounds{8, 16, 24, 32, 48, 64};

}  // namespace

MediumConfig validated(MediumConfig config) {
  util::Validator v{"MediumConfig"};
  v.probability("per_link_loss", config.per_link_loss);
  v.non_negative_seconds("propagation_delay",
                         config.propagation_delay.to_seconds());
  return config;
}

BroadcastMedium::BroadcastMedium(Simulator& sim, Topology topology,
                                 MediumConfig config, std::uint64_t seed,
                                 obs::Hooks hooks)
    : sim_(sim),
      topology_(std::move(topology)),
      config_(validated(config)),
      rng_(seed),
      owned_metrics_(hooks.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(hooks.metrics != nullptr ? hooks.metrics : owned_metrics_.get()),
      spans_(hooks.spans),
      handlers_(topology_.size()),
      enabled_(topology_.size(), 1),
      active_rx_(topology_.size()),
      tx_first_start_(topology_.size(), TimePoint::origin()),
      tx_busy_until_(topology_.size(), TimePoint::origin()) {
  obs::MetricsRegistry& m = *metrics_;
  counters_.frames_sent = m.counter("medium.frames_sent");
  counters_.deliveries_attempted = m.counter("medium.deliveries_attempted");
  counters_.delivered = m.counter("medium.delivered");
  counters_.lost_random = m.counter("medium.lost_random");
  counters_.lost_rf_collision = m.counter("medium.lost_rf_collision");
  counters_.lost_half_duplex = m.counter("medium.lost_half_duplex");
  counters_.lost_disabled = m.counter("medium.lost_disabled");
  counters_.lost_fault = m.counter("medium.lost_fault");
  counters_.fault_extra_deliveries =
      m.counter("medium.fault_extra_deliveries");
  counters_.frame_bytes = m.histogram("medium.frame_bytes", kFrameBytesBounds);
}

MediumStatsSnapshot BroadcastMedium::stats() const noexcept {
  MediumStatsSnapshot s;
  s.frames_sent = counters_.frames_sent.value();
  s.deliveries_attempted = counters_.deliveries_attempted.value();
  s.delivered = counters_.delivered.value();
  s.lost_random = counters_.lost_random.value();
  s.lost_rf_collision = counters_.lost_rf_collision.value();
  s.lost_half_duplex = counters_.lost_half_duplex.value();
  s.lost_disabled = counters_.lost_disabled.value();
  s.lost_fault = counters_.lost_fault.value();
  s.fault_extra_deliveries = counters_.fault_extra_deliveries.value();
  return s;
}

void BroadcastMedium::attach(NodeId node, RxHandler handler) {
  assert(node < handlers_.size());
  handlers_[node] = std::move(handler);
}

void BroadcastMedium::set_enabled(NodeId node, bool is_enabled) {
  assert(node < enabled_.size());
  enabled_[node] = is_enabled ? 1 : 0;
}

bool BroadcastMedium::enabled(NodeId node) const {
  assert(node < enabled_.size());
  return enabled_[node] != 0;
}

std::uint32_t BroadcastMedium::acquire_reception() {
  std::uint32_t slot;
  if (rx_free_head_ != kNoReception) {
    slot = rx_free_head_;
    rx_free_head_ = rx_next_free_[slot];
  } else {
    slot = static_cast<std::uint32_t>(rx_refs_.size());
    rx_corrupted_.push_back(0);
    rx_refs_.push_back(0);
    rx_next_free_.push_back(kNoReception);
  }
  rx_corrupted_[slot] = 0;
  rx_refs_[slot] = 2;  // the active-rx list + the delivery batch
  return slot;
}

void BroadcastMedium::unref_reception(std::uint32_t slot) noexcept {
  assert(rx_refs_[slot] > 0);
  if (--rx_refs_[slot] == 0) {
    rx_next_free_[slot] = rx_free_head_;
    rx_free_head_ = slot;
  }
}

std::uint32_t BroadcastMedium::acquire_batch() {
  std::uint32_t batch;
  if (batch_free_head_ != kNoBatch) {
    batch = batch_free_head_;
    batch_free_head_ = batches_[batch].next_free;
  } else {
    batch = static_cast<std::uint32_t>(batches_.size());
    batches_.emplace_back();
  }
  return batch;
}

void BroadcastMedium::release_batch(std::uint32_t batch) noexcept {
  DeliveryBatch& b = batches_[batch];
  b.listeners.clear();  // capacity kept — steady state reuses it
  b.rx_slots.clear();
  b.next_free = batch_free_head_;
  batch_free_head_ = batch;
}

void BroadcastMedium::prune(ActiveRx& rx, TimePoint t) noexcept {
  // `ends` is ascending, so expired receptions form a prefix: scan the
  // contiguous end-time array and advance head instead of erasing —
  // amortized O(1) per reception, no reception-pool reads at all.
  const std::int64_t t_ns = t.ns();
  while (rx.head < rx.ends.size() && rx.ends[rx.head] <= t_ns) {
    unref_reception(rx.slots[rx.head]);
    ++rx.head;
  }
  if (rx.head == rx.ends.size()) {
    rx.slots.clear();
    rx.ends.clear();
    rx.head = 0;
  } else if (rx.head >= 64 && rx.head >= rx.ends.size() / 2) {
    const auto n = static_cast<std::ptrdiff_t>(rx.head);
    rx.slots.erase(rx.slots.begin(), rx.slots.begin() + n);
    rx.ends.erase(rx.ends.begin(), rx.ends.begin() + n);
    rx.head = 0;
  }
}

void BroadcastMedium::frame_instant(const char* name, NodeId track,
                                    std::size_t bytes) {
  if (spans_ == nullptr) return;
  spans_->instant(name, "medium", track, sim_.now(), obs::SpanId::none(),
                  static_cast<std::uint64_t>(bytes));
}

void BroadcastMedium::transmit(NodeId from, util::Bytes payload,
                               Duration airtime) {
  transmit(from, util::BytesView(payload), airtime);
}

void BroadcastMedium::transmit(NodeId from, util::BytesView frame,
                               Duration airtime) {
  assert(from < topology_.size());
  if (!enabled(from)) return;
  counters_.frames_sent.inc();
  counters_.frame_bytes.record(static_cast<double>(frame.size()));
  frame_instant("frame.transmit", from, frame.size());

  const TimePoint start = sim_.now();
  const TimePoint end = start + airtime;
  if (start > tx_busy_until_[from]) {
    tx_first_start_[from] = start;  // new busy burst
  }
  tx_busy_until_[from] = std::max(tx_busy_until_[from], end);

  // Snapshot the audience into a pooled batch and schedule ONE delivery
  // event spanning it, instead of one closure per listener. Counters, rx
  // bookkeeping, and the audience copy happen now (transmit time), exactly
  // as the per-listener design did; the loss checks run per-listener
  // inside the batch event in the same order. The batch holds a single
  // reference on one pooled copy of the frame for the whole broadcast.
  const std::vector<NodeId>& audience = topology_.audience(from);
  const std::uint32_t batch = acquire_batch();
  DeliveryBatch& b = batches_[batch];
  b.payload = payload_pool_.copy_of(frame);
  b.start = start;
  b.end = end;
  b.from = from;
  b.listeners.assign(audience.begin(), audience.end());
  counters_.deliveries_attempted.inc(b.listeners.size());

  if (config_.rf_collisions) {
    const std::int64_t start_ns = start.ns();
    const std::int64_t end_ns = end.ns();
    for (const NodeId listener : b.listeners) {
      ActiveRx& rx = active_rx_[listener];
      prune(rx, start);
      const std::uint32_t rx_slot = acquire_reception();
      // Everything the prune left ends after `start`, i.e. overlaps the
      // new reception: both sides corrupt.
      for (std::size_t i = rx.head; i < rx.ends.size(); ++i) {
        assert(rx.ends[i] > start_ns);
        rx_corrupted_[rx.slots[i]] = 1;
      }
      if (rx.head < rx.ends.size()) rx_corrupted_[rx_slot] = 1;
      // Keep the list end-time-ordered; with near-constant airtimes the
      // new reception already belongs at the back, so this is O(1).
      rx.slots.push_back(rx_slot);
      rx.ends.push_back(end_ns);
      for (std::size_t i = rx.ends.size() - 1;
           i > rx.head && rx.ends[i - 1] > end_ns; --i) {
        std::swap(rx.ends[i - 1], rx.ends[i]);
        std::swap(rx.slots[i - 1], rx.slots[i]);
      }
      b.rx_slots.push_back(rx_slot);
    }
    (void)start_ns;  // only read by the assert above
  }

  sim_.schedule_at(end + config_.propagation_delay,
                   [this, batch]() { on_batch(batch); });
}

void BroadcastMedium::on_batch(std::uint32_t batch) {
  // Handlers may transmit re-entrantly, growing batches_ and the reception
  // pool mid-loop — so re-index batches_[batch] on every access instead of
  // caching a reference, and take the broadcast's fields out first. This
  // batch's slot itself is safe: it is not on the free list until
  // release_batch below.
  DeliveryBatch& b = batches_[batch];
  const util::SharedBytes payload = std::move(b.payload);
  const NodeId from = b.from;
  const TimePoint start = b.start;
  const TimePoint end = b.end;
  const std::size_t n = b.listeners.size();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId listener = batches_[batch].listeners[i];
    const std::uint32_t rx_slot = batches_[batch].rx_slots.empty()
                                      ? kNoReception
                                      : batches_[batch].rx_slots[i];
    on_delivery(from, listener, rx_slot, payload, start, end);
  }
  release_batch(batch);
}

void BroadcastMedium::on_delivery(NodeId from, NodeId listener,
                                  std::uint32_t rx_slot,
                                  const util::SharedBytes& payload,
                                  TimePoint start, TimePoint end) {
  // Read the collision verdict and release the batch's reference up
  // front, so the record is recycled on every exit path below.
  bool corrupted = false;
  if (rx_slot != kNoReception) {
    corrupted = rx_corrupted_[rx_slot] != 0;
    unref_reception(rx_slot);
  }
  const std::size_t bytes = payload.size();
  if (!enabled(listener)) {
    counters_.lost_disabled.inc();
    frame_instant("frame.lost_disabled", listener, bytes);
    return;
  }
  if (corrupted) {
    counters_.lost_rf_collision.inc();
    frame_instant("frame.lost_rf_collision", listener, bytes);
    return;
  }
  // Half-duplex: lost if the listener's own transmit burst overlaps the
  // reception interval [start, end). Evaluated at delivery time so
  // transmissions the listener started mid-reception count.
  if (config_.half_duplex && tx_busy_until_[listener] > start &&
      tx_first_start_[listener] < end) {
    counters_.lost_half_duplex.inc();
    frame_instant("frame.lost_half_duplex", listener, bytes);
    return;
  }
  if (config_.per_link_loss > 0.0 && rng_.chance(config_.per_link_loss)) {
    counters_.lost_random.inc();
    frame_instant("frame.lost_random", listener, bytes);
    return;
  }
  if (interceptor_ == nullptr) {
    deliver(from, listener, payload);
    return;
  }
  deliver_through_interceptor(from, listener, payload);
}

void BroadcastMedium::deliver(NodeId from, NodeId listener,
                              const util::SharedBytes& payload) {
  counters_.delivered.inc();
  frame_instant("frame.deliver", listener, payload.size());
  if (handlers_[listener]) handlers_[listener](from, payload.bytes());
}

void BroadcastMedium::deliver_through_interceptor(
    NodeId from, NodeId listener, const util::SharedBytes& payload) {
  std::vector<DeliveryInterceptor::Injected> copies =
      interceptor_->intercept(from, listener, payload);
  if (copies.empty()) {
    counters_.lost_fault.inc();
    frame_instant("frame.lost_fault", listener, payload.size());
    return;
  }
  counters_.fault_extra_deliveries.inc(
      static_cast<std::uint64_t>(copies.size()) - 1);
  for (DeliveryInterceptor::Injected& copy : copies) {
    assert(copy.extra_delay.ns() >= 0);
    if (copy.extra_delay.ns() <= 0) {
      deliver(from, listener, copy.payload);
      continue;
    }
    // Delayed copies re-check the listener's power state at arrival: a
    // crash while the copy was in flight is an ordinary lost_disabled,
    // keeping the conservation law exact under churn.
    sim_.schedule_after(
        copy.extra_delay,
        [this, from, listener, delayed = std::move(copy.payload)]() {
          if (!enabled(listener)) {
            counters_.lost_disabled.inc();
            frame_instant("frame.lost_disabled", listener, delayed.size());
            return;
          }
          deliver(from, listener, delayed);
        });
  }
}

}  // namespace retri::sim
