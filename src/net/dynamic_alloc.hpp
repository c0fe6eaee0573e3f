// Dynamic local address allocation — the §2.2/2.3 alternative.
//
// A decentralized claim/defend protocol in the style of SDR/MASC listen-
// before-claim allocation (and of later ACD schemes): a joining node picks a
// random address it has not heard in use, broadcasts a CLAIM, and listens
// for a claim-wait period. An established holder of that address answers
// with a DEFEND; a concurrent claimant with a lower nonce wins the tie.
// Either event makes the claimant retry with a fresh address. Silence for
// the full wait confirms the address.
//
// The paper's argument (§2.3) is that in a *dynamic* network this protocol's
// control traffic is paid on every topology change and cannot amortize over
// a low data rate. The ablate_dynamic_alloc bench measures exactly that:
// control bits per acquired address as churn increases, versus AFF which
// pays nothing on membership change.
//
// Wire (big-endian):
//   claim:  [0x21][addr:ceil(A/8)][nonce:4]
//   defend: [0x22][addr:ceil(A/8)]
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "net/static_addr.hpp"
#include "radio/radio.hpp"
#include "util/random.hpp"

namespace retri::net {

struct DynAllocConfig {
  /// Width of the locally unique address space being allocated.
  unsigned addr_bits = 10;
  /// How long a claimant listens for objections before confirming.
  sim::Duration claim_wait = sim::Duration::milliseconds(200);
  /// Give up after this many conflicted attempts (0 = never).
  unsigned max_attempts = 0;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The DynAllocNode constructor applies this.
DynAllocConfig validated(DynAllocConfig config);

struct DynAllocStats {
  std::uint64_t claims_sent = 0;
  std::uint64_t defends_sent = 0;
  std::uint64_t conflicts = 0;       // claim attempts that had to restart
  std::uint64_t attempts = 0;        // claim attempts started
  std::uint64_t control_bits_sent = 0;
};

class DynAllocNode {
 public:
  using AcquiredFn = std::function<void(Address)>;
  using FailedFn = std::function<void()>;

  DynAllocNode(radio::Radio& radio, DynAllocConfig config, std::uint64_t seed);
  ~DynAllocNode();

  DynAllocNode(const DynAllocNode&) = delete;
  DynAllocNode& operator=(const DynAllocNode&) = delete;

  void set_on_acquired(AcquiredFn fn) { on_acquired_ = std::move(fn); }
  void set_on_failed(FailedFn fn) { on_failed_ = std::move(fn); }

  /// Begins (or restarts) address acquisition.
  void start();

  /// Releases the address silently (the node leaves or reboots), modelling
  /// the churn the paper argues against. A subsequent start() reacquires.
  void release();

  bool has_address() const noexcept { return confirmed_; }
  Address address() const noexcept { return address_; }
  /// Simulated time from start() to confirmation (valid once acquired).
  sim::Duration acquisition_delay() const noexcept { return acquisition_delay_; }
  const DynAllocStats& stats() const noexcept { return stats_; }
  /// Addresses this node believes are in use by others (its listen cache).
  std::size_t known_used() const noexcept { return heard_used_.size(); }

 private:
  enum class State { kIdle, kClaiming, kConfirmed };

  void begin_attempt();
  void on_frame(const util::Bytes& frame);
  void send_claim();
  void send_defend(std::uint64_t addr);
  std::uint64_t pick_address();

  radio::Radio& radio_;
  DynAllocConfig config_;
  util::Xoshiro256 rng_;
  State state_ = State::kIdle;
  bool confirmed_ = false;
  Address address_;
  std::uint64_t pending_addr_ = 0;
  std::uint32_t pending_nonce_ = 0;
  unsigned attempt_ = 0;
  sim::TimePoint started_at_;
  sim::Duration acquisition_delay_{};
  sim::EventHandle confirm_timer_;
  std::unordered_set<std::uint64_t> heard_used_;
  AcquiredFn on_acquired_;
  FailedFn on_failed_;
  DynAllocStats stats_;
};

}  // namespace retri::net
