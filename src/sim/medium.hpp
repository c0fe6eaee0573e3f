// Shared broadcast medium.
//
// Models the wireless channel the Radiometrix RPC radios share: every frame
// a node transmits is heard by every enabled node in its audience (per the
// Topology). The medium optionally models:
//   - independent per-link random loss (RF vagaries, §3.1),
//   - RF collisions: receptions that overlap in time at a receiver corrupt
//     each other (carrier collisions at the air interface),
//   - half-duplex radios: a node transmitting during a reception misses it.
//
// The ideal configuration (no loss, no collisions) isolates *identifier*
// collisions, which is what the paper's Figure 4 measures; the lossy
// configurations feed the robustness tests and ablations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/topology.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace retri::sim {

struct MediumConfig {
  /// Probability each individual delivery is lost, independently.
  double per_link_loss = 0.0;
  /// If true, time-overlapping receptions at the same receiver corrupt
  /// each other (both are lost).
  bool rf_collisions = false;
  /// If true, a node cannot receive while it is itself transmitting.
  bool half_duplex = false;
  /// Constant propagation delay added after the frame's airtime.
  Duration propagation_delay = Duration::nanoseconds(0);
};

/// Checks a MediumConfig's invariants: per_link_loss must be a real number
/// in [0, 1] and propagation_delay must be non-negative. Returns the config
/// unchanged, throws std::invalid_argument naming the offending field
/// otherwise. BroadcastMedium calls this on construction.
MediumConfig validated(MediumConfig config);

/// Point-in-time view of the medium's loss buckets, built from the
/// "medium.*" counters in the backing obs::MetricsRegistry. stats()
/// returns one BY VALUE — it is a copy, not a live reference; re-call
/// stats() after further simulation to observe new events.
struct MediumStatsSnapshot {
  std::uint64_t frames_sent = 0;            // transmit() calls
  std::uint64_t deliveries_attempted = 0;   // one per (frame, listener)
  std::uint64_t delivered = 0;
  std::uint64_t lost_random = 0;
  std::uint64_t lost_rf_collision = 0;
  std::uint64_t lost_half_duplex = 0;
  std::uint64_t lost_disabled = 0;          // listener was powered off
  std::uint64_t lost_fault = 0;             // interceptor returned no copies
  /// Copies an interceptor injected beyond the original delivery. The
  /// conservation law every configuration must satisfy is
  ///   deliveries_attempted + fault_extra_deliveries ==
  ///       delivered + lost_random + lost_rf_collision + lost_half_duplex
  ///       + lost_disabled + lost_fault.
  std::uint64_t fault_extra_deliveries = 0;
};

/// Delivery-path decorator hook (implemented by fault::FaultInjector).
///
/// For each delivery that survived every native impairment (enabled, RF
/// collision, half-duplex, per-link random loss), the medium asks the
/// interceptor what actually arrives: nothing (counted lost_fault), the
/// original payload, a corrupted/truncated copy, or several duplicated
/// copies, each with an optional extra delay. Copies with a positive delay
/// are rescheduled and re-checked against the listener's power state at
/// their new delivery time (a crash between injection and arrival counts
/// as lost_disabled).
///
/// Payloads are SharedBytes: a passthrough copy (`copy.payload = payload`)
/// shares the buffer with every other listener at refcount cost only; an
/// interceptor that mutates must go through SharedBytes::mutable_bytes(),
/// whose copy-on-write clone keeps the corruption local to this delivery.
/// The medium's buffers are pooled: a copy an interceptor keeps holds its
/// buffer out of the pool, and outlives the medium safely.
class DeliveryInterceptor {
 public:
  struct Injected {
    util::SharedBytes payload;
    Duration extra_delay = Duration::nanoseconds(0);  // must be >= 0
  };

  virtual ~DeliveryInterceptor() = default;

  /// Called once per surviving delivery, in deterministic event order.
  virtual std::vector<Injected> intercept(NodeId from, NodeId to,
                                          const util::SharedBytes& payload) = 0;
};

class BroadcastMedium {
 public:
  /// Called on successful frame reception: (sender, frame payload).
  using RxHandler = std::function<void(NodeId, const util::Bytes&)>;

  /// `hooks` wires the medium into a shared obs::MetricsRegistry (counters
  /// under "medium.*", frame-size histogram "medium.frame_bytes") and, when
  /// hooks.spans is set, records every frame event (transmit, delivery,
  /// and each loss cause) as a "frame.*" instant in the span stream
  /// (category "medium", track = receiving/sending node, frame size as
  /// the instant's bytes).
  /// With default hooks the medium owns a private registry so stats() keeps
  /// working standalone.
  BroadcastMedium(Simulator& sim, Topology topology, MediumConfig config,
                  std::uint64_t seed, obs::Hooks hooks = {});

  /// Registers the receive handler for a node. One handler per node;
  /// re-attaching replaces the previous handler. A node serves one radio
  /// at a time, which detaches (nullptr) in its destructor.
  void attach(NodeId node, RxHandler handler);

  /// Broadcasts a copy of `frame`, occupying the channel for `airtime`.
  /// Deliveries to each audible listener are scheduled at now + airtime +
  /// propagation. Disabled senders transmit nothing. The copy lives in a
  /// buffer recycled from the medium's pool, so a steady stream of
  /// transmits allocates nothing once warm.
  void transmit(NodeId from, util::BytesView frame, Duration airtime);
  /// The same broadcast for a caller holding the frame in a vector.
  void transmit(NodeId from, util::Bytes payload, Duration airtime);

  /// Powers a node on/off. Off nodes neither transmit nor receive; frames
  /// addressed to them while off are counted as lost_disabled.
  void set_enabled(NodeId node, bool enabled);
  bool enabled(NodeId node) const;

  /// Attaches (or detaches, with nullptr) a delivery interceptor. The
  /// interceptor must outlive every scheduled delivery (in practice: the
  /// simulation run). At most one interceptor; faults compose *after* the
  /// native loss checks, so the interceptor only sees frames that would
  /// have been delivered.
  void set_interceptor(DeliveryInterceptor* interceptor) noexcept {
    interceptor_ = interceptor;
  }

  /// Snapshot of the loss buckets, BY VALUE (see MediumStatsSnapshot).
  MediumStatsSnapshot stats() const noexcept;
  const Topology& topology() const noexcept { return topology_; }
  /// Mutable topology access for dynamics experiments (link churn).
  Topology& topology() noexcept { return topology_; }
  Simulator& simulator() noexcept { return sim_; }

 private:
  static constexpr std::uint32_t kNoReception = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoBatch = ~std::uint32_t{0};

  /// Per-listener list of in-flight receptions (rf_collisions mode only),
  /// ordered by ascending end time, SoA: `ends` mirrors each reception's
  /// end-of-airtime inline so the prune is a contiguous scan over one
  /// int64 array — no pointer-chase into the reception pool. Pruning
  /// advances `head` past expired entries instead of erasing (amortized
  /// O(1)); the expired prefix is compacted away once it dominates.
  struct ActiveRx {
    std::vector<std::uint32_t> slots;  // indices into the reception pool
    std::vector<std::int64_t> ends;    // end of airtime, ns; parallel
    std::size_t head = 0;
  };

  /// One broadcast, as its delivery event needs it: the sender, the
  /// payload, the airtime interval, the audience snapshot taken at
  /// transmit time and each listener's reception slot. The event's
  /// closure is just `[this, batch]`, trivially copyable, and walks the
  /// whole audience — one event per transmit instead of one per listener.
  /// Batches are pooled and recycled through a free list; the vectors keep
  /// their capacity, so a steady-state transmit allocates nothing.
  struct DeliveryBatch {
    std::vector<NodeId> listeners;
    std::vector<std::uint32_t> rx_slots;  // empty when !rf_collisions
    util::SharedBytes payload;            // moved out when the batch runs
    TimePoint start;
    TimePoint end;
    NodeId from = 0;
    std::uint32_t next_free = kNoBatch;
  };

  std::uint32_t acquire_reception();
  void unref_reception(std::uint32_t slot) noexcept;

  std::uint32_t acquire_batch();
  void release_batch(std::uint32_t batch) noexcept;

  /// Advances `rx.head` past receptions that ended at or before `t`,
  /// releasing their list reference.
  void prune(ActiveRx& rx, TimePoint t) noexcept;

  /// Records frame event `name` ("frame.transmit", "frame.deliver",
  /// "frame.lost_*") as an instant on `track` (the sender for transmits,
  /// the listener otherwise) when a span recorder is attached.
  void frame_instant(const char* name, NodeId track, std::size_t bytes);

  /// Terminal delivery step: counts, traces, and invokes the handler.
  void deliver(NodeId from, NodeId listener, const util::SharedBytes& payload);

  /// Runs the interceptor on a surviving delivery and dispatches the
  /// resulting copies (immediately or rescheduled by extra_delay).
  void deliver_through_interceptor(NodeId from, NodeId listener,
                                   const util::SharedBytes& payload);

  /// Body of the batched delivery event: iterates the batch's listeners in
  /// audience order, running on_delivery for each, then recycles the batch.
  /// Handlers may re-entrantly transmit (growing batches_ / the reception
  /// pool), so the batch is re-indexed on every access — never held by
  /// reference across a delivery.
  void on_batch(std::uint32_t batch);

  /// Per-listener delivery step: applies the native loss checks in order
  /// (disabled, RF collision, half-duplex, random loss), then delivers
  /// directly or through the interceptor. Observable order (counters, rng
  /// draws, traces, handler calls) is identical to the pre-batching
  /// one-event-per-listener design: the per-listener events held
  /// consecutive seqs, so nothing could interleave between them anyway.
  void on_delivery(NodeId from, NodeId listener, std::uint32_t rx_slot,
                   const util::SharedBytes& payload, TimePoint start,
                   TimePoint end);

  /// Registry-backed counter handles; one per MediumStatsSnapshot bucket,
  /// plus a frame-size histogram. Registered once at construction so the
  /// recording hot path never allocates.
  struct Counters {
    obs::Counter frames_sent;
    obs::Counter deliveries_attempted;
    obs::Counter delivered;
    obs::Counter lost_random;
    obs::Counter lost_rf_collision;
    obs::Counter lost_half_duplex;
    obs::Counter lost_disabled;
    obs::Counter lost_fault;
    obs::Counter fault_extra_deliveries;
    obs::Histogram frame_bytes;
  };

  Simulator& sim_;
  Topology topology_;
  MediumConfig config_;
  util::Xoshiro256 rng_;
  /// Fallback registry, created only when no hooks.metrics was supplied.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
  Counters counters_;
  DeliveryInterceptor* interceptor_ = nullptr;
  std::vector<RxHandler> handlers_;
  std::vector<char> enabled_;
  // Reception pool, SoA (rf_collisions mode only): a reception is a slot
  // index into these parallel arrays. `refs` counts the two possible
  // holders — the listener's active-rx list and the pending delivery batch
  // — and the slot is recycled when both let go. Start/end times are not
  // stored here: the prune reads the ActiveRx-inline `ends` mirror and the
  // delivery batch carries the interval, so the pool is just the mutable
  // collision verdict plus lifetime bookkeeping.
  std::vector<char> rx_corrupted_;
  std::vector<std::uint8_t> rx_refs_;
  std::vector<std::uint32_t> rx_next_free_;
  std::uint32_t rx_free_head_ = kNoReception;
  std::vector<ActiveRx> active_rx_;  // per listener
  std::vector<DeliveryBatch> batches_;
  std::uint32_t batch_free_head_ = kNoBatch;
  // Most recent transmission interval per node, for the half-duplex check.
  // Back-to-back transmissions coalesce (busy-until extends); the check is
  // exact unless a node's transmissions are non-contiguous *and* interleave
  // a reception, which no modelled MAC produces.
  std::vector<TimePoint> tx_first_start_;
  std::vector<TimePoint> tx_busy_until_;
  // Transmitted frames' buffers; a delivery batch holds one until it runs.
  util::BytesPool payload_pool_;
};

}  // namespace retri::sim
