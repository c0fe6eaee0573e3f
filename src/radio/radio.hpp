// RPC-class frame radio device.
//
// Models the Radiometrix RPC packet controller the paper's testbed used
// (§5): the host hands the radio a frame of at most 27 bytes; the radio
// broadcasts it; every in-range radio that receives it hands it up to its
// host. There is no addressing, no ACK, no retransmission at this layer.
//
// The radio serializes its own transmissions: frames queue in FIFO order
// and go on the air back-to-back separated by an inter-frame gap, with an
// optional random backoff before each frame (a minimal collision-avoidance
// MAC for the rf_collisions medium configuration).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "radio/energy.hpp"
#include "sim/medium.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace retri::radio {

/// The Radiometrix RPC's frame payload limit (§4.4 / §5).
inline constexpr std::size_t kRpcMaxFrameBytes = 27;

struct RadioConfig {
  /// Largest frame the packet controller accepts.
  std::size_t max_frame_bytes = kRpcMaxFrameBytes;
  /// Link bit rate; sets frame airtime. 40 kbit/s is RPC-class.
  double bitrate_bps = 40'000.0;
  /// Quiet time the controller enforces between its own frames.
  sim::Duration interframe_gap = sim::Duration::microseconds(500);
  /// If nonzero, each frame waits an additional uniform-random delay in
  /// [0, max_backoff) before transmitting (simple collision avoidance).
  sim::Duration max_backoff = sim::Duration::nanoseconds(0);
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The Radio constructor applies this.
RadioConfig validated(RadioConfig config);

struct RadioCounters {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_rejected = 0;  // oversized frames refused by send()
  std::uint64_t frames_missed_asleep = 0;  // arrived while not listening
  std::uint64_t payload_bits_sent = 0;
  std::uint64_t payload_bits_received = 0;
};

class Radio {
 public:
  /// Called for every frame this radio successfully receives.
  using RxCallback = std::function<void(sim::NodeId from, const util::Bytes&)>;

  Radio(sim::BroadcastMedium& medium, sim::NodeId node, RadioConfig config,
        EnergyModel energy_model, std::uint64_t seed);

  /// Cancels the pending backoff or gap event and leaves the medium.
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  /// Installs the host's receive handler (replaces any previous one). A
  /// radio serves one host at a time, which clears it in its destructor.
  void set_receive_callback(RxCallback cb) { rx_callback_ = std::move(cb); }

  /// Gates the receiver: while not listening, incoming frames are missed
  /// (no delivery, no receive energy). Transmission is unaffected — a
  /// duty-cycled node wakes to transmit. §3.2: "some nodes may choose to
  /// minimize the time they spend listening because of the significant
  /// power requirements of running a radio."
  void set_listening(bool listening) noexcept { listening_ = listening; }
  bool listening() const noexcept { return listening_; }

  /// Queues a copy of `frame` for transmission. Returns false (and counts
  /// a rejection) if the frame exceeds max_frame_bytes; the frame is
  /// dropped, matching the RPC controller's behaviour of refusing oversized
  /// frames. Queue slots keep their buffers, so once warm a steady stream
  /// of frames queues without allocating.
  bool send(util::BytesView frame);
  /// The same, for a caller holding the frame in a vector.
  bool send(util::Bytes frame);

  /// Time a frame of `payload_bytes` occupies the channel, including the
  /// energy model's per-frame overhead bits.
  sim::Duration airtime(std::size_t payload_bytes) const noexcept;

  sim::NodeId node() const noexcept { return node_; }
  sim::Simulator& simulator() noexcept { return medium_.simulator(); }
  std::size_t queue_depth() const noexcept { return queued_; }
  bool idle() const noexcept { return !busy_ && queued_ == 0; }
  const RadioCounters& counters() const noexcept { return counters_; }
  const EnergyMeter& energy() const noexcept { return energy_; }
  const RadioConfig& config() const noexcept { return config_; }

 private:
  void start_next();
  /// Transmits the oldest queued frame and frees its slot.
  void transmit_front();
  /// Doubles the full ring, unrolling it so the oldest frame sits at 0.
  void grow_ring();
  void on_medium_rx(sim::NodeId from, const util::Bytes& payload);

  sim::BroadcastMedium& medium_;
  sim::NodeId node_;
  RadioConfig config_;
  EnergyMeter energy_;
  util::Xoshiro256 rng_;
  RxCallback rx_callback_;
  // The FIFO of frames awaiting the air: queued_ frames from ring_[head_],
  // wrapping around. Slots keep their capacity when freed, and head_
  // returns to 0 whenever the queue empties, so a sender that queues the
  // same frame sizes each time refills the same buffers.
  std::vector<util::Bytes> ring_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  bool busy_ = false;
  sim::EventHandle pending_;  // the one backoff or gap event busy_ allows
  bool listening_ = true;
  RadioCounters counters_;
};

}  // namespace retri::radio
