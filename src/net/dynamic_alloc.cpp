#include "net/dynamic_alloc.hpp"

#include <cassert>

#include "util/bitops.hpp"
#include "util/bytes.hpp"
#include "util/validate.hpp"

namespace retri::net {
namespace {

constexpr std::uint8_t kClaimKind = 0x21;
constexpr std::uint8_t kDefendKind = 0x22;

}  // namespace

DynAllocConfig validated(DynAllocConfig config) {
  util::Validator v{"DynAllocConfig"};
  v.in_range("addr_bits", config.addr_bits, 1, 48);
  v.positive_seconds("claim_wait", config.claim_wait.to_seconds());
  return config;
}

DynAllocNode::DynAllocNode(radio::Radio& radio, DynAllocConfig config,
                           std::uint64_t seed)
    : radio_(radio),
      config_(validated(config)),
      rng_(seed) {
  assert(config_.addr_bits >= 1 && config_.addr_bits <= 48);
  radio_.set_receive_callback(
      [this](sim::NodeId, const util::Bytes& frame) { on_frame(frame); });
}

DynAllocNode::~DynAllocNode() {
  confirm_timer_.cancel();
  radio_.set_receive_callback(nullptr);
}

std::uint64_t DynAllocNode::pick_address() {
  const std::uint64_t pool = util::pool_size_exact(config_.addr_bits);
  // Listen-before-claim: avoid every address heard in use. If the cache
  // covers the whole space the node is out of luck and probes blind.
  if (heard_used_.size() < pool) {
    for (int attempt = 0; attempt < 128; ++attempt) {
      const std::uint64_t candidate = rng_.below(pool);
      if (!heard_used_.contains(candidate)) return candidate;
    }
  }
  return rng_.below(pool);
}

void DynAllocNode::start() {
  if (state_ == State::kClaiming) return;
  confirmed_ = false;
  state_ = State::kClaiming;
  attempt_ = 0;
  started_at_ = radio_.simulator().now();
  begin_attempt();
}

void DynAllocNode::release() {
  confirm_timer_.cancel();
  state_ = State::kIdle;
  confirmed_ = false;
}

void DynAllocNode::begin_attempt() {
  if (config_.max_attempts != 0 && attempt_ >= config_.max_attempts) {
    state_ = State::kIdle;
    if (on_failed_) on_failed_();
    return;
  }
  ++attempt_;
  ++stats_.attempts;
  pending_addr_ = pick_address();
  pending_nonce_ = static_cast<std::uint32_t>(rng_.next());
  send_claim();

  confirm_timer_ = radio_.simulator().schedule_after(
      config_.claim_wait, [this]() {
        if (state_ != State::kClaiming) return;
        state_ = State::kConfirmed;
        confirmed_ = true;
        address_ = Address(pending_addr_);
        acquisition_delay_ = radio_.simulator().now() - started_at_;
        if (on_acquired_) on_acquired_(address_);
      });
}

void DynAllocNode::send_claim() {
  util::BufferWriter w(1 + util::bytes_for_bits(config_.addr_bits) + 4);
  w.u8(kClaimKind);
  w.uvar(pending_addr_, config_.addr_bits);
  w.u32(pending_nonce_);
  stats_.control_bits_sent += w.size() * 8;
  ++stats_.claims_sent;
  radio_.send(w.take());
}

void DynAllocNode::send_defend(std::uint64_t addr) {
  util::BufferWriter w(1 + util::bytes_for_bits(config_.addr_bits));
  w.u8(kDefendKind);
  w.uvar(addr, config_.addr_bits);
  stats_.control_bits_sent += w.size() * 8;
  ++stats_.defends_sent;
  radio_.send(w.take());
}

void DynAllocNode::on_frame(const util::Bytes& frame) {
  util::BufferReader r(frame);
  const auto kind = r.u8();
  const auto addr = r.uvar(config_.addr_bits);
  if (!kind || !addr) return;

  if (*kind == kClaimKind) {
    const auto nonce = r.u32();
    if (!nonce) return;
    heard_used_.insert(*addr);

    if (state_ == State::kConfirmed && *addr == address_.value()) {
      send_defend(*addr);
      return;
    }
    if (state_ == State::kClaiming && *addr == pending_addr_ &&
        *nonce != pending_nonce_) {
      // Concurrent claim for the same address: lower nonce wins the
      // tie-break; the loser restarts with a fresh address.
      if (*nonce < pending_nonce_) {
        ++stats_.conflicts;
        confirm_timer_.cancel();
        begin_attempt();
      }
      return;
    }
  } else if (*kind == kDefendKind) {
    heard_used_.insert(*addr);
    if (state_ == State::kClaiming && *addr == pending_addr_) {
      ++stats_.conflicts;
      confirm_timer_.cancel();
      begin_attempt();
    }
  }
}

}  // namespace retri::net
