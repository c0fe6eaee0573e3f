#include "apps/diffusion.hpp"

#include <cassert>

#include "util/validate.hpp"

namespace retri::apps {
namespace {

std::string attrs_key_of(const AttributeSet& attrs) {
  AttributeSet canon = attrs;
  canonicalize(canon);
  const util::Bytes bytes = serialize_attributes(canon);
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

DiffusionConfig validated(DiffusionConfig config) {
  util::Validator v{"DiffusionConfig"};
  v.in_range("id_bits", config.id_bits, 1, 64);
  v.at_least("interest_ttl", config.interest_ttl, 1);
  v.at_least("data_ttl", config.data_ttl, 1);
  v.positive_seconds("interest_lifetime",
                     config.interest_lifetime.to_seconds());
  v.at_least("data_seen_window", config.data_seen_window, 1);
  return config;
}

DiffusionNode::DiffusionNode(radio::Radio& radio, core::IdSelector& selector,
                             DiffusionConfig config, std::uint32_t node_uid)
    : radio_(radio),
      selector_(selector),
      config_(validated(config)),
      node_uid_(node_uid) {
  assert(selector_.space().bits() == config_.id_bits);
  radio_.set_receive_callback(
      [this](sim::NodeId, const util::Bytes& frame) { on_frame(frame); });
}

DiffusionNode::~DiffusionNode() { radio_.set_receive_callback(nullptr); }

double DiffusionNode::local_density() const noexcept {
  const double live =
      static_cast<double>(gradients_.size() + data_seen_.size());
  return live < 1.0 ? 1.0 : live;
}

void DiffusionNode::sweep_expired() {
  const sim::TimePoint now = radio_.simulator().now();
  for (auto it = gradients_.begin(); it != gradients_.end();) {
    if (it->second.expires <= now) {
      subscriptions_.erase(it->first);
      it = gradients_.erase(it);
    } else {
      ++it;
    }
  }
}

core::TransactionId DiffusionNode::subscribe(AttributeSet attrs,
                                             DataHandler handler) {
  sweep_expired();
  canonicalize(attrs);
  const core::TransactionId id = selector_.select();

  // Install the local gradient + subscription before flooding, so data
  // arriving immediately can match.
  Gradient gradient;
  gradient.attrs_key = attrs_key_of(attrs);
  gradient.attrs = attrs;
  gradient.sink_uid = node_uid_;
  gradient.expires = radio_.simulator().now() + config_.interest_lifetime;
  gradients_[id.value()] = std::move(gradient);
  subscriptions_[id.value()] = std::move(handler);

  util::BufferWriter w;
  w.u8(kInterestKind);
  w.uvar(id.value(), config_.id_bits);
  w.u32(node_uid_);
  w.u8(config_.interest_ttl);
  w.raw(serialize_attributes(attrs));
  radio_.send(w.take());
  ++stats_.interests_sent;
  return id;
}

std::optional<core::TransactionId> DiffusionNode::publish(
    const AttributeSet& attrs, std::uint16_t value) {
  sweep_expired();
  const std::string key = attrs_key_of(attrs);
  const Gradient* match = nullptr;
  std::uint64_t interest_id = 0;
  for (const auto& [id, gradient] : gradients_) {
    if (gradient.attrs_key == key) {
      match = &gradient;
      interest_id = id;
      break;
    }
  }
  if (match == nullptr) {
    ++stats_.data_no_gradient;
    return std::nullopt;
  }

  const core::TransactionId data_id = selector_.select();
  const std::uint32_t src_uid = (node_uid_ << 16) | (next_seq_++ & 0xffff);
  remember_data(data_id, src_uid);  // don't re-relay our own datum

  util::BufferWriter w;
  w.u8(kDataKind2);
  w.uvar(interest_id, config_.id_bits);
  w.uvar(data_id.value(), config_.id_bits);
  w.u32(src_uid);
  w.u8(config_.data_ttl);
  w.u16(value);
  radio_.send(w.take());
  ++stats_.data_published;
  return data_id;
}

bool DiffusionNode::has_gradient(const AttributeSet& attrs) const {
  const std::string key = attrs_key_of(attrs);
  for (const auto& [id, gradient] : gradients_) {
    if (gradient.attrs_key == key) return true;
  }
  return false;
}

bool DiffusionNode::remember_data(core::TransactionId id,
                                  std::uint32_t src_uid) {
  const std::uint64_t key = id.value();
  auto it = data_seen_.find(key);
  if (it != data_seen_.end()) {
    ++stats_.data_suppressed;
    if (it->second != src_uid) ++stats_.data_collision_suppressed;
    return false;
  }
  data_seen_.emplace(key, src_uid);
  data_seen_order_.push_back(key);
  while (data_seen_order_.size() > config_.data_seen_window) {
    data_seen_.erase(data_seen_order_.front());
    data_seen_order_.pop_front();
  }
  return true;
}

void DiffusionNode::handle_interest(util::BufferReader& r) {
  const auto id = r.uvar(config_.id_bits);
  const auto sink_uid = r.u32();
  const auto ttl = r.u8();
  if (!id || !sink_uid || !ttl) {
    ++stats_.undecodable;
    return;
  }
  auto attrs = deserialize_attributes(r.rest());
  if (!attrs) {
    ++stats_.undecodable;
    return;
  }
  sweep_expired();
  selector_.observe(core::TransactionId(*id));

  const std::string key = attrs_key_of(*attrs);
  auto it = gradients_.find(*id);
  if (it != gradients_.end()) {
    // Refresh, or detect an interest-id collision (different ask under the
    // same id — instrumentation tells us, the protocol cannot).
    if (it->second.attrs_key != key || it->second.sink_uid != *sink_uid) {
      ++stats_.gradient_conflicts;
    }
    it->second.expires =
        radio_.simulator().now() + config_.interest_lifetime;
    return;  // already relayed this interest when first heard
  }

  Gradient gradient;
  gradient.attrs_key = key;
  gradient.attrs = std::move(*attrs);
  gradient.sink_uid = *sink_uid;
  gradient.expires = radio_.simulator().now() + config_.interest_lifetime;
  gradients_.emplace(*id, std::move(gradient));
  ++stats_.gradients_established;

  if (*ttl <= 1) return;
  util::BufferWriter w;
  w.u8(kInterestKind);
  w.uvar(*id, config_.id_bits);
  w.u32(*sink_uid);
  w.u8(static_cast<std::uint8_t>(*ttl - 1));
  w.raw(serialize_attributes(gradients_.at(*id).attrs));
  radio_.send(w.take());
  ++stats_.interests_relayed;
}

void DiffusionNode::handle_data(util::BufferReader& r) {
  const auto interest_id = r.uvar(config_.id_bits);
  const auto data_id = r.uvar(config_.id_bits);
  const auto src_uid = r.u32();
  const auto ttl = r.u8();
  const auto value = r.u16();
  if (!interest_id || !data_id || !src_uid || !ttl || !value || !r.empty()) {
    ++stats_.undecodable;
    return;
  }
  sweep_expired();
  selector_.observe(core::TransactionId(*data_id));

  // Only nodes holding the gradient participate — this is the scoping that
  // keeps data near the interest path instead of flooding the world.
  const auto gradient = gradients_.find(*interest_id);
  if (gradient == gradients_.end()) return;

  if (!remember_data(core::TransactionId(*data_id), *src_uid)) return;

  const auto subscription = subscriptions_.find(*interest_id);
  if (subscription != subscriptions_.end()) {
    ++stats_.data_delivered;
    subscription->second(*value, *src_uid);
    return;  // the sink terminates the datum
  }

  if (*ttl <= 1) return;
  util::BufferWriter w;
  w.u8(kDataKind2);
  w.uvar(*interest_id, config_.id_bits);
  w.uvar(*data_id, config_.id_bits);
  w.u32(*src_uid);
  w.u8(static_cast<std::uint8_t>(*ttl - 1));
  w.u16(*value);
  radio_.send(w.take());
  ++stats_.data_relayed;
}

void DiffusionNode::on_frame(const util::Bytes& frame) {
  util::BufferReader r(frame);
  const auto kind = r.u8();
  if (!kind) {
    ++stats_.undecodable;
    return;
  }
  if (*kind == kInterestKind) handle_interest(r);
  else if (*kind == kDataKind2) handle_data(r);
  else ++stats_.undecodable;
}

}  // namespace retri::apps
