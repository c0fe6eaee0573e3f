#include "aff/driver.hpp"

#include <memory>
#include <string>

#include "util/validate.hpp"

namespace retri::aff {

namespace {

/// Sent-packet size histogram buckets (bytes); packets cap at 64 KiB but
/// the interesting mass is small multi-fragment payloads.
const std::vector<double> kPacketBytesBounds{16, 32, 64, 128, 256, 512, 1024};

/// Per-node metric namespace: one driver per node, so "n<node>.aff.*"
/// keeps several drivers distinct inside one shared trial registry.
std::string node_prefix(sim::NodeId node) {
  std::string out = "n";
  out += std::to_string(node);
  out += ".aff.";
  return out;
}

/// validated(config), plus the check that the selector draws ids exactly
/// as wide as the wire carries: a wider selector's ids would be silently
/// masked on the wire.
AffDriverConfig validated_for(const core::IdSelector& selector,
                              AffDriverConfig config) {
  validated(config);
  const unsigned selector_bits = selector.space().bits();
  if (selector_bits != config.wire.id_bits) {
    util::Validator{"AffDriverConfig"}.fail(
        "wire.id_bits",
        "equal the selector's id width of " + std::to_string(selector_bits) +
            " bits",
        std::to_string(config.wire.id_bits));
  }
  return config;
}

}  // namespace

AffDriverConfig validated(AffDriverConfig config) {
  util::Validator v{"AffDriverConfig"};
  v.in_range("wire.id_bits", config.wire.id_bits, 1, 64);
  v.positive_seconds("reassembly_timeout",
                     config.reassembly_timeout.to_seconds());
  v.at_least("max_reassembly_entries", config.max_reassembly_entries, 1);
  return config;
}

AffDriver::AffDriver(radio::Radio& radio, core::IdSelector& selector,
                     AffDriverConfig config, std::uint64_t node_uid,
                     obs::Hooks hooks)
    : radio_(radio),
      selector_(selector),
      config_(validated_for(selector, config)),
      owned_metrics_(hooks.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(hooks.metrics != nullptr ? hooks.metrics : owned_metrics_.get()),
      spans_(hooks.spans),
      fragmenter_(FragmenterConfig{config.wire, radio.config().max_frame_bytes}),
      reassembler_(ReassemblerConfig{config.reassembly_timeout,
                                     config.max_reassembly_entries},
                   obs::Hooks{metrics_, spans_},
                   node_prefix(radio.node()) + "rx.", radio.node()),
      truth_reassembler_(
          config.truth_reassembly
              ? std::make_unique<Reassembler>(
                    ReassemblerConfig{config.reassembly_timeout,
                                      config.max_reassembly_entries},
                    obs::Hooks{metrics_, spans_},
                    node_prefix(radio.node()) + "truth.", radio.node())
              : nullptr),
      density_(core::make_density_model(config.density_model)),
      node_uid_(node_uid) {
  const std::string prefix = node_prefix(radio_.node());
  counters_.packets_sent = metrics_->counter(prefix + "packets_sent");
  counters_.fragments_sent = metrics_->counter(prefix + "fragments_sent");
  counters_.send_failures = metrics_->counter(prefix + "send_failures");
  counters_.packets_delivered = metrics_->counter(prefix + "packets_delivered");
  if (truth_reassembler_ != nullptr) {
    counters_.truth_packets_delivered =
        metrics_->counter(prefix + "truth_packets_delivered");
  }
  counters_.notifications_sent =
      metrics_->counter(prefix + "notifications_sent");
  counters_.notifications_heard =
      metrics_->counter(prefix + "notifications_heard");
  counters_.undecodable_frames =
      metrics_->counter(prefix + "undecodable_frames");
  counters_.packet_bytes =
      metrics_->histogram(prefix + "packet_bytes", kPacketBytesBounds);
  std::string selector_prefix = "n";
  selector_prefix += std::to_string(radio_.node());
  selector_prefix += ".selector.";
  selector_.bind_metrics(*metrics_, selector_prefix);
  // A saturating sender arms its next packet's drain timer before the
  // previous one fires, so two cells cover it without growing.
  drain_timers_.reserve(2);

  radio_.set_receive_callback([this](sim::NodeId from, const util::Bytes& frame) {
    on_frame(from, frame);
  });

  reassembler_.set_deliver([this](std::uint64_t, util::BytesView packet) {
    counters_.packets_delivered.inc();
    if (on_packet_) on_packet_(packet);
  });
  // Every closed entry — delivered, failed, timed out, or evicted — ends one
  // visible transaction for density purposes.
  reassembler_.set_closed([this](std::uint64_t) {
    density_->on_end();
    push_density_to_selector();
  });

  if (truth_reassembler_ != nullptr) {
    truth_reassembler_->set_deliver(
        [this](std::uint64_t, util::BytesView packet) {
          counters_.truth_packets_delivered.inc();
          if (on_truth_packet_) on_truth_packet_(packet);
        });
  }
}

AffDriverStatsSnapshot AffDriver::stats() const noexcept {
  AffDriverStatsSnapshot s;
  s.packets_sent = counters_.packets_sent.value();
  s.fragments_sent = counters_.fragments_sent.value();
  s.send_failures = counters_.send_failures.value();
  s.packets_delivered = counters_.packets_delivered.value();
  s.truth_packets_delivered = counters_.truth_packets_delivered.value();
  s.notifications_sent = counters_.notifications_sent.value();
  s.notifications_heard = counters_.notifications_heard.value();
  s.undecodable_frames = counters_.undecodable_frames.value();
  return s;
}

AffDriver::~AffDriver() {
  expiry_timer_.cancel();
  for (DrainTimer& timer : drain_timers_) timer.handle.cancel();
  radio_.set_receive_callback(nullptr);
}

void AffDriver::ensure_expiry_timer() {
  if (expiry_armed_) return;
  if (reassembler_.pending_count() == 0 &&
      (truth_reassembler_ == nullptr ||
       truth_reassembler_->pending_count() == 0)) {
    return;
  }
  expiry_armed_ = true;
  const sim::Duration period = config_.reassembly_timeout / 2;
  expiry_timer_ = radio_.simulator().schedule_after(period, [this]() {
    expiry_armed_ = false;
    reassembler_.expire(radio_.simulator().now());
    if (truth_reassembler_ != nullptr) {
      truth_reassembler_->expire(radio_.simulator().now());
    }
    ensure_expiry_timer();
  });
}

void AffDriver::push_density_to_selector() {
  selector_.set_density(density_->estimate());
}

util::Result<core::TransactionId, SendError> AffDriver::send_packet(
    util::BytesView packet) {
  const sim::TimePoint now = radio_.simulator().now();
  const core::TransactionId id = selector_.select();
  const std::uint64_t true_id = (node_uid_ << 32) | next_packet_seq_++;

  // The sender-side transaction span opens at id selection — the paper's
  // transaction begins the moment an ephemeral identifier is committed —
  // and closes "drained" once the radio has flushed the packet's frames.
  obs::SpanId span = obs::SpanId::none();
  if (spans_ != nullptr) {
    span = spans_->begin("transaction", "aff", radio_.node(), now);
    spans_->annotate(span, "id", id.value());
    spans_->annotate(span, "true_id", true_id);
    spans_->annotate(span, "bytes", packet.size());
  }

  const auto frames = fragmenter_.frames_for(packet);
  if (!frames) {
    counters_.send_failures.inc();
    if (spans_ != nullptr) spans_->end(span, now, "send_failed");
    switch (frames.error()) {
      case FragmentError::kEmptyPacket: return SendError::kEmpty;
      case FragmentError::kPacketTooLarge: return SendError::kTooLarge;
      case FragmentError::kFrameTooSmall: return SendError::kFrameTooSmall;
    }
    return SendError::kEmpty;  // unreachable; switch above is exhaustive
  }

  const std::size_t backlog = radio_.queue_depth();
  const std::size_t nframes = frames.value();
  // Sized once for the largest frame, so a short intro encoded first does
  // not leave the buffer to regrow for the data frames after it.
  frame_.reserve(fragmenter_.config().max_frame_bytes);
  for (std::size_t i = 0; i < nframes; ++i) {
    fragmenter_.encode_frame(packet, id, true_id, i, frame_);
    if (!radio_.send(util::BytesView(frame_))) {
      counters_.send_failures.inc();
      if (spans_ != nullptr) spans_->end(span, now, "send_failed");
      return SendError::kRadioRejected;  // cannot happen if fragmenter agrees with radio
    }
    if (spans_ != nullptr) {
      spans_->instant("frag_tx", "aff", radio_.node(), now, span,
                      static_cast<std::uint64_t>(frame_.size()));
    }
  }
  counters_.packets_sent.inc();
  counters_.fragments_sent.inc(nframes);
  counters_.packet_bytes.record(static_cast<double>(packet.size()));
  if (spans_ != nullptr) spans_->annotate(span, "frames", nframes);

  // The sender's own transaction contributes to the density it experiences.
  // It ends when the radio has drained this packet's frames; estimate that
  // from the queue backlog at a full frame per slot.
  density_->on_begin();
  push_density_to_selector();
  const sim::Duration per_frame =
      radio_.airtime(radio_.config().max_frame_bytes) +
      radio_.config().interframe_gap + radio_.config().max_backoff;
  const sim::Duration drain = per_frame * static_cast<std::int64_t>(backlog + nframes);
  std::uint32_t cell = drain_free_;
  if (cell != kNoDrainTimer) {
    drain_free_ = drain_timers_[cell].next_free;
  } else {
    cell = static_cast<std::uint32_t>(drain_timers_.size());
    drain_timers_.emplace_back();
  }
  drain_timers_[cell].handle = radio_.simulator().schedule_after(
      drain, [this, span, cell]() {
        drain_timers_[cell].next_free = drain_free_;
        drain_free_ = cell;
        if (spans_ != nullptr) {
          spans_->end(span, radio_.simulator().now(), "drained");
        }
        density_->on_end();
        push_density_to_selector();
      });

  return id;
}

void AffDriver::note_transaction_begin(core::TransactionId id) {
  density_->on_begin();
  selector_.observe(id);
  push_density_to_selector();
}

void AffDriver::maybe_notify_collision(std::uint64_t key) {
  const std::uint64_t conflicts = reassembler_.conflicting_writes();
  if (conflicts == prev_conflicting_writes_) return;
  prev_conflicting_writes_ = conflicts;
  if (!config_.send_collision_notifications) return;
  counters_.notifications_sent.inc();
  encode_notify(config_.wire, CollisionNotify{core::TransactionId(key)},
                frame_);
  radio_.send(util::BytesView(frame_));
}

void AffDriver::handle_intro(const IntroFragment& intro,
                             std::optional<std::uint64_t> true_id) {
  const std::uint64_t key = intro.id.value();
  if (!reassembler_.pending(key)) note_transaction_begin(intro.id);
  reassembler_.on_intro(key, intro.total_len, intro.checksum,
                        radio_.simulator().now());
  maybe_notify_collision(key);
  if (truth_reassembler_ != nullptr && true_id) {
    truth_reassembler_->on_intro(*true_id, intro.total_len, intro.checksum,
                                 radio_.simulator().now());
  }
  ensure_expiry_timer();
}

void AffDriver::handle_data(const DataFragment& data,
                            std::optional<std::uint64_t> true_id) {
  const std::uint64_t key = data.id.value();
  // Only introductions begin transactions: a data fragment without a live
  // introduced entry is an orphan the reassembler drops.
  reassembler_.on_data(key, data.offset, data.payload, radio_.simulator().now());
  maybe_notify_collision(key);
  if (truth_reassembler_ != nullptr && true_id) {
    truth_reassembler_->on_data(*true_id, data.offset, data.payload,
                                radio_.simulator().now());
  }
  ensure_expiry_timer();
}

void AffDriver::on_frame(sim::NodeId from, const util::Bytes& frame) {
  (void)from;  // address-free: the sender's identity is never used
  DecodedFragment decoded;
  if (!decode(config_.wire, frame, decoded)) {
    counters_.undecodable_frames.inc();
    return;
  }
  if (const auto* intro = std::get_if<IntroFragment>(&decoded.body)) {
    handle_intro(*intro, decoded.true_packet_id);
  } else if (const auto* data = std::get_if<DataFragment>(&decoded.body)) {
    handle_data(*data, decoded.true_packet_id);
  } else if (const auto* notify = std::get_if<CollisionNotify>(&decoded.body)) {
    counters_.notifications_heard.inc();
    selector_.notify_collision(notify->id);
  }
}

}  // namespace retri::aff
