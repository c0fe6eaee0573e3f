// Centralized address allocation — the other §2.2 alternative.
//
// "Protocols such as DHCP allocate addresses from a local authority", and
// WINS (related work, §7) assigns short local addresses from a cluster
// controller. This is that baseline: one server node owns the address
// space and answers request frames with dense sequential grants — optimal
// allocation ("about 16 bits will be sufficient", §4.2) at the price the
// paper names in §2.3: "a central address authority is not possible
// because of the highly decentralized nature of the network" — a single
// point of failure, plus a request/grant round trip per join.
//
// Clients retry on timeout (lost frames, dead server) a bounded number of
// times, then report failure — which is how the single-point-of-failure
// cost becomes measurable in experiments.
//
// Wire (big-endian):
//   request: [0x25][nonce:4]
//   grant:   [0x26][nonce:4][addr:ceil(A/8)]
//   deny:    [0x27][nonce:4]            (address space exhausted)
#pragma once

#include <cstdint>
#include <functional>

#include "net/static_addr.hpp"
#include "radio/radio.hpp"
#include "util/random.hpp"

namespace retri::net {

struct CentralAllocStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t denials = 0;
  std::uint64_t retries = 0;
  std::uint64_t control_bits_sent = 0;
};

/// The authority: owns an addr_bits-wide space, grants densely.
class CentralAllocServer {
 public:
  CentralAllocServer(radio::Radio& radio, unsigned addr_bits);
  ~CentralAllocServer();

  CentralAllocServer(const CentralAllocServer&) = delete;
  CentralAllocServer& operator=(const CentralAllocServer&) = delete;

  std::uint64_t granted() const noexcept { return allocator_.assigned_count(); }
  const CentralAllocStats& stats() const noexcept { return stats_; }

 private:
  void on_frame(const util::Bytes& frame);

  radio::Radio& radio_;
  unsigned addr_bits_;
  StaticAddressAllocator allocator_;
  CentralAllocStats stats_;
};

struct CentralClientConfig {
  unsigned addr_bits = 16;
  sim::Duration request_timeout = sim::Duration::milliseconds(500);
  unsigned max_retries = 4;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The CentralAllocClient constructor applies this.
CentralClientConfig validated(CentralClientConfig config);

/// A joining node: request, await grant, retry, give up.
class CentralAllocClient {
 public:
  using AcquiredFn = std::function<void(Address)>;
  using FailedFn = std::function<void()>;

  CentralAllocClient(radio::Radio& radio, CentralClientConfig config,
                     std::uint64_t seed);
  ~CentralAllocClient();

  CentralAllocClient(const CentralAllocClient&) = delete;
  CentralAllocClient& operator=(const CentralAllocClient&) = delete;

  void set_on_acquired(AcquiredFn fn) { on_acquired_ = std::move(fn); }
  void set_on_failed(FailedFn fn) { on_failed_ = std::move(fn); }

  void start();

  bool has_address() const noexcept { return acquired_; }
  Address address() const noexcept { return address_; }
  sim::Duration acquisition_delay() const noexcept { return acquisition_delay_; }
  const CentralAllocStats& stats() const noexcept { return stats_; }

 private:
  void send_request();
  void on_frame(const util::Bytes& frame);

  radio::Radio& radio_;
  CentralClientConfig config_;
  util::Xoshiro256 rng_;
  bool requesting_ = false;
  bool acquired_ = false;
  Address address_;
  std::uint32_t nonce_ = 0;
  unsigned attempt_ = 0;
  sim::TimePoint started_at_;
  sim::Duration acquisition_delay_{};
  sim::EventHandle timeout_timer_;
  AcquiredFn on_acquired_;
  FailedFn on_failed_;
  CentralAllocStats stats_;
};

}  // namespace retri::net
