// The AFF driver: the paper's fragmentation service (§5) end to end.
//
// Accepts packets of up to 64 KiB from the application, assigns each a
// fresh identifier from the configured selection policy, fragments it into
// radio frames, and transmits. Watches the radio for fragments, reassembles
// them keyed by AFF identifier, and delivers checksum-verified packets to
// the application. In instrumented mode (§5.1) every fragment additionally
// carries the sender's guaranteed-unique packet id and the driver runs a
// second, ground-truth reassembly keyed by that id, so an experiment can
// report both "packets received" and "packets that would have been received
// based on the AFF identifier alone".
//
// The driver also implements the two §3.2 heuristics:
//  - listening: overheard introduction fragments are reported to the
//    selector (observe) and to the density estimator;
//  - collision notification: a receiver that detects conflicting fragments
//    under one identifier may broadcast a notification; senders hearing it
//    quarantine that identifier.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "aff/fragmenter.hpp"
#include "aff/reassembler.hpp"
#include "aff/wire.hpp"
#include "core/density.hpp"
#include "core/selector.hpp"
#include "radio/radio.hpp"
#include "util/result.hpp"

namespace retri::aff {

enum class SendError {
  kEmpty,
  kTooLarge,
  kFrameTooSmall,
  kRadioRejected,
};

struct AffDriverConfig {
  WireConfig wire;
  sim::Duration reassembly_timeout = sim::Duration::seconds(10);
  std::size_t max_reassembly_entries = 1024;
  /// Broadcast a CollisionNotify when reassembly detects conflicting
  /// fragments under one identifier (§3.2's parenthetical heuristic).
  bool send_collision_notifications = false;
  /// Which transaction-density estimator to run (DESIGN.md ablation C').
  core::DensityModelKind density_model = core::DensityModelKind::kEwma;
  /// Run the instrumented ground-truth reassembly (§5.1) on frames that
  /// carry a guaranteed-unique packet id. Off, the driver builds no truth
  /// Reassembler and registers none of its "n<node>.aff.truth*" metrics;
  /// runner::Star turns it off at senders, whose truth nothing reads.
  bool truth_reassembly = true;
};

/// Checks an AffDriverConfig's invariants: wire.id_bits in [1, 64],
/// positive reassembly_timeout, nonzero max_reassembly_entries. Returns the
/// config unchanged, throws std::invalid_argument naming the offending
/// field otherwise. AffDriver calls this on construction.
AffDriverConfig validated(AffDriverConfig config);

/// Point-in-time view of the driver's tallies, built from the
/// "n<node>.aff.*" counters in the backing obs::MetricsRegistry. stats()
/// returns one BY VALUE — re-call it to observe later events.
struct AffDriverStatsSnapshot {
  std::uint64_t packets_sent = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t packets_delivered = 0;        // realistic (AFF-keyed) path
  std::uint64_t truth_packets_delivered = 0;  // instrumented ground truth
  std::uint64_t notifications_sent = 0;
  std::uint64_t notifications_heard = 0;
  std::uint64_t undecodable_frames = 0;
};

class AffDriver {
 public:
  /// Receives a delivered packet as a view valid only during the call; a
  /// handler that keeps the packet copies it.
  using PacketHandler = std::function<void(util::BytesView packet)>;

  /// `node_uid` is this node's guaranteed-unique identifier — in the
  /// paper's terms the long static id that exists but is deliberately NOT
  /// sent per packet except in instrumented mode.
  ///
  /// `selector`'s id width must equal config.wire.id_bits, or the
  /// constructor throws std::invalid_argument.
  ///
  /// `hooks` wires the driver, its reassemblers, and the selector into a
  /// shared metrics registry under per-node prefixes ("n<node>.aff.",
  /// "n<node>.aff.rx.", "n<node>.aff.truth.", "n<node>.selector.") and,
  /// when hooks.spans is set, records one transaction span per sent packet
  /// (begun at id selection, annotated with id/bytes/frames, ended
  /// "drained" when the radio has flushed its frames) plus reassembly
  /// spans on the receive side. Default hooks fall back to a private
  /// registry so stats() keeps working standalone.
  AffDriver(radio::Radio& radio, core::IdSelector& selector,
            AffDriverConfig config, std::uint64_t node_uid,
            obs::Hooks hooks = {});
  ~AffDriver();

  AffDriver(const AffDriver&) = delete;
  AffDriver& operator=(const AffDriver&) = delete;

  /// Handler for packets delivered by the realistic AFF-keyed path.
  void set_packet_handler(PacketHandler handler) { on_packet_ = std::move(handler); }
  /// Handler for packets delivered by the instrumented ground-truth path.
  void set_truth_packet_handler(PacketHandler handler) {
    on_truth_packet_ = std::move(handler);
  }

  /// Fragments and transmits one packet. Returns the identifier used, or
  /// the reason nothing was sent.
  util::Result<core::TransactionId, SendError> send_packet(util::BytesView packet);

  const Reassembler& aff_reassembler() const noexcept { return reassembler_; }
  /// The ground-truth reassembler; null when config.truth_reassembly is off.
  const Reassembler* truth_reassembler() const noexcept {
    return truth_reassembler_.get();
  }
  /// Snapshot of the tallies, BY VALUE (see AffDriverStatsSnapshot).
  AffDriverStatsSnapshot stats() const noexcept;
  const AffDriverConfig& config() const noexcept { return config_; }
  double density_estimate() const noexcept { return density_->estimate(); }
  core::IdSelector& selector() noexcept { return selector_; }
  radio::Radio& radio() noexcept { return radio_; }

 private:
  void on_frame(sim::NodeId from, const util::Bytes& frame);
  void handle_intro(const IntroFragment& intro,
                    std::optional<std::uint64_t> true_id);
  void handle_data(const DataFragment& data,
                   std::optional<std::uint64_t> true_id);
  void note_transaction_begin(core::TransactionId id);
  void maybe_notify_collision(std::uint64_t key);
  /// Arms the reassembly-expiry timer if entries are pending and no timer
  /// is armed. The timer re-arms itself only while entries remain, so an
  /// idle driver schedules nothing and Simulator::run() terminates.
  void ensure_expiry_timer();
  void push_density_to_selector();

  /// Registry-backed counter handles, one per snapshot field, plus the
  /// sent-packet size histogram. Registered once at construction.
  struct Counters {
    obs::Counter packets_sent;
    obs::Counter fragments_sent;
    obs::Counter send_failures;
    obs::Counter packets_delivered;
    obs::Counter truth_packets_delivered;
    obs::Counter notifications_sent;
    obs::Counter notifications_heard;
    obs::Counter undecodable_frames;
    obs::Histogram packet_bytes;
  };

  radio::Radio& radio_;
  core::IdSelector& selector_;
  AffDriverConfig config_;
  // Observability members precede the reassemblers: the member-init list
  // resolves hooks (falling back to owned_metrics_) before constructing
  // them, so the reassemblers can register under per-node prefixes.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // fallback registry
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
  Fragmenter fragmenter_;
  Reassembler reassembler_;  // keyed by AFF identifier value
  // Keyed by guaranteed-unique packet id; null without truth_reassembly.
  std::unique_ptr<Reassembler> truth_reassembler_;
  std::unique_ptr<core::DensityModel> density_;
  // Every frame this driver sends, notifications included, is encoded here
  // and handed to the radio as a view; the buffer keeps its capacity.
  util::Bytes frame_;
  std::uint64_t node_uid_;
  std::uint64_t next_packet_seq_ = 0;
  std::uint64_t prev_conflicting_writes_ = 0;
  PacketHandler on_packet_;
  PacketHandler on_truth_packet_;
  Counters counters_;
  // The driver's timers, cancelled by ~AffDriver so none fires into a
  // destroyed driver: the expiry timer, and one drain timer per sent
  // packet whose frames are still draining. Drain timers live in cells
  // threaded on an intrusive free list: a timer frees its cell as it fires
  // and the next packet reuses it, so the cells stop growing at the most
  // packets ever draining at once.
  struct DrainTimer {
    sim::EventHandle handle;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kNoDrainTimer = ~std::uint32_t{0};
  // Set while an expiry timer is scheduled; the timer clears it on firing.
  bool expiry_armed_ = false;
  sim::EventHandle expiry_timer_;
  std::vector<DrainTimer> drain_timers_;
  std::uint32_t drain_free_ = kNoDrainTimer;
};

}  // namespace retri::aff
