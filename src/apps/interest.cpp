#include "apps/interest.hpp"

#include <cassert>

#include "util/bytes.hpp"
#include "util/validate.hpp"

namespace retri::apps {
namespace {

constexpr std::uint8_t kReadingKind = 0x31;
constexpr std::uint8_t kReinforceKind = 0x32;

}  // namespace

SensorConfig validated(SensorConfig config) {
  util::Validator v{"SensorConfig"};
  v.in_range("wire.id_bits", config.wire.id_bits, 1, 64);
  v.positive_seconds("base_period", config.base_period.to_seconds());
  v.positive_seconds("reinforced_period",
                     config.reinforced_period.to_seconds());
  if (config.reinforced_period > config.base_period) {
    v.fail_bare("reinforced_period", "be <= base_period");
  }
  v.non_negative_seconds("reinforcement_ttl",
                         config.reinforcement_ttl.to_seconds());
  v.at_least("recent_ids", config.recent_ids, 1);
  return config;
}

InterestSensor::InterestSensor(radio::Radio& radio, core::IdSelector& selector,
                               SensorConfig config, std::uint32_t uid,
                               SampleFn sample)
    : radio_(radio),
      selector_(selector),
      config_(validated(config)),
      uid_(uid),
      sample_(std::move(sample)) {
  assert(selector_.space().bits() == config_.wire.id_bits);
  assert(config_.reinforced_period <= config_.base_period);
  assert(sample_ != nullptr);
  radio_.set_receive_callback(
      [this](sim::NodeId, const util::Bytes& frame) { on_frame(frame); });
}

InterestSensor::~InterestSensor() {
  tick_timer_.cancel();
  radio_.set_receive_callback(nullptr);
}

void InterestSensor::start(sim::TimePoint until) {
  tick_timer_.cancel();  // a restart replaces the pending tick
  until_ = until;
  tick();
}

bool InterestSensor::reinforced() const {
  return radio_.simulator().now() < reinforced_until_;
}

void InterestSensor::tick() {
  if (radio_.simulator().now() >= until_) return;
  send_reading();
  const sim::Duration period =
      reinforced() ? config_.reinforced_period : config_.base_period;
  tick_timer_ = radio_.simulator().schedule_after(period, [this]() { tick(); });
}

void InterestSensor::send_reading() {
  const core::TransactionId id = selector_.select();
  recent_ids_.push_back(id);
  while (recent_ids_.size() > config_.recent_ids) recent_ids_.pop_front();

  util::BufferWriter w;
  w.u8(kReadingKind);
  w.uvar(id.value(), config_.wire.id_bits);
  w.u32(uid_);
  w.u16(sample_());
  radio_.send(w.take());
  ++stats_.readings_sent;
}

void InterestSensor::on_frame(const util::Bytes& frame) {
  util::BufferReader r(frame);
  const auto kind = r.u8();
  if (!kind) return;

  if (*kind == kReadingKind) {
    // Another sensor's reading: learn its identifier so listening policies
    // avoid it.
    const auto id = r.uvar(config_.wire.id_bits);
    if (id) selector_.observe(core::TransactionId(*id));
    return;
  }
  if (*kind != kReinforceKind) return;

  const auto id = r.uvar(config_.wire.id_bits);
  const auto target_uid = r.u32();
  if (!id || !target_uid) return;

  const core::TransactionId wanted(*id);
  for (const core::TransactionId mine : recent_ids_) {
    if (mine == wanted) {
      ++stats_.reinforcements_claimed;
      // The uid is instrumentation: the protocol has already acted on the
      // identifier match; stats record whether the claim was really ours.
      if (*target_uid != uid_) ++stats_.false_claims;
      reinforced_until_ =
          radio_.simulator().now() + config_.reinforcement_ttl;
      return;
    }
  }
}

SinkConfig validated(SinkConfig config) {
  util::Validator v{"SinkConfig"};
  v.in_range("wire.id_bits", config.wire.id_bits, 1, 64);
  return config;
}

InterestSink::InterestSink(radio::Radio& radio, SinkConfig config)
    : radio_(radio), config_(validated(config)) {
  radio_.set_receive_callback(
      [this](sim::NodeId, const util::Bytes& frame) { on_frame(frame); });
}

InterestSink::~InterestSink() { radio_.set_receive_callback(nullptr); }

void InterestSink::on_frame(const util::Bytes& frame) {
  util::BufferReader r(frame);
  const auto kind = r.u8();
  if (!kind || *kind != kReadingKind) return;
  const auto id = r.uvar(config_.wire.id_bits);
  const auto uid = r.u32();
  const auto value = r.u16();
  if (!id || !uid || !value) return;

  ++stats_.readings_heard;
  if (on_reading_) on_reading_(core::TransactionId(*id), *value);

  if (*value >= config_.interest_threshold) {
    util::BufferWriter w;
    w.u8(kReinforceKind);
    w.uvar(*id, config_.wire.id_bits);
    w.u32(*uid);  // instrumentation only; receivers match on the id
    radio_.send(w.take());
    ++stats_.reinforcements_sent;
  }
}

}  // namespace retri::apps
