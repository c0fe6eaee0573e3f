#include "net/central_alloc.hpp"

#include <cassert>

#include "util/bitops.hpp"
#include "util/bytes.hpp"
#include "util/validate.hpp"

namespace retri::net {
namespace {

constexpr std::uint8_t kRequestKind = 0x25;
constexpr std::uint8_t kGrantKind = 0x26;
constexpr std::uint8_t kDenyKind = 0x27;

}  // namespace

CentralAllocServer::CentralAllocServer(radio::Radio& radio, unsigned addr_bits)
    : radio_(radio), addr_bits_(addr_bits), allocator_(addr_bits) {
  radio_.set_receive_callback(
      [this](sim::NodeId, const util::Bytes& frame) { on_frame(frame); });
}

CentralAllocServer::~CentralAllocServer() {
  radio_.set_receive_callback(nullptr);
}

void CentralAllocServer::on_frame(const util::Bytes& frame) {
  util::BufferReader r(frame);
  const auto kind = r.u8();
  if (!kind || *kind != kRequestKind) return;
  const auto nonce = r.u32();
  if (!nonce || !r.empty()) return;

  // NOTE: re-requests after a lost grant receive a fresh address; a real
  // server would cache nonce->addr. The waste is part of the baseline's
  // cost profile under loss, and the space is sized for it.
  const auto addr = allocator_.assign_sequential();
  util::BufferWriter w;
  if (addr.ok()) {
    w.u8(kGrantKind);
    w.u32(*nonce);
    w.uvar(addr.value().value(), addr_bits_);
    ++stats_.requests_served;
  } else {
    w.u8(kDenyKind);
    w.u32(*nonce);
    ++stats_.denials;
  }
  stats_.control_bits_sent += w.size() * 8;
  radio_.send(w.take());
}

CentralClientConfig validated(CentralClientConfig config) {
  util::Validator v{"CentralClientConfig"};
  v.in_range("addr_bits", config.addr_bits, 1, 48);
  v.positive_seconds("request_timeout",
                     config.request_timeout.to_seconds());
  return config;
}

CentralAllocClient::CentralAllocClient(radio::Radio& radio,
                                       CentralClientConfig config,
                                       std::uint64_t seed)
    : radio_(radio),
      config_(validated(config)),
      rng_(seed) {
  radio_.set_receive_callback(
      [this](sim::NodeId, const util::Bytes& frame) { on_frame(frame); });
}

CentralAllocClient::~CentralAllocClient() {
  timeout_timer_.cancel();
  radio_.set_receive_callback(nullptr);
}

void CentralAllocClient::start() {
  if (requesting_) return;
  requesting_ = true;
  acquired_ = false;
  attempt_ = 0;
  started_at_ = radio_.simulator().now();
  send_request();
}

void CentralAllocClient::send_request() {
  if (attempt_ >= config_.max_retries) {
    requesting_ = false;
    if (on_failed_) on_failed_();
    return;
  }
  if (attempt_ > 0) ++stats_.retries;
  ++attempt_;
  nonce_ = static_cast<std::uint32_t>(rng_.next());

  util::BufferWriter w;
  w.u8(kRequestKind);
  w.u32(nonce_);
  stats_.control_bits_sent += w.size() * 8;
  ++stats_.requests_sent;
  radio_.send(w.take());

  timeout_timer_ = radio_.simulator().schedule_after(
      config_.request_timeout, [this]() {
        if (!requesting_) return;
        send_request();
      });
}

void CentralAllocClient::on_frame(const util::Bytes& frame) {
  if (!requesting_) return;
  util::BufferReader r(frame);
  const auto kind = r.u8();
  if (!kind || (*kind != kGrantKind && *kind != kDenyKind)) return;
  const auto nonce = r.u32();
  if (!nonce || *nonce != nonce_) return;  // not addressed to us

  if (*kind == kDenyKind) {
    timeout_timer_.cancel();
    requesting_ = false;
    if (on_failed_) on_failed_();
    return;
  }

  const auto addr = r.uvar(config_.addr_bits);
  if (!addr || !r.empty()) return;
  timeout_timer_.cancel();
  requesting_ = false;
  acquired_ = true;
  address_ = Address(*addr);
  acquisition_delay_ = radio_.simulator().now() - started_at_;
  if (on_acquired_) on_acquired_(address_);
}

}  // namespace retri::net
