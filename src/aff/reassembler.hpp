// Packet reassembly.
//
// Collects intro and data fragments per reassembly key and delivers a packet
// once every byte has arrived and the checksum verifies. "Packets that
// suffer from identifier collisions are never delivered because of checksum
// failures or other inconsistencies" (§5) — the reassembler counts both
// symptoms (checksum_failed, conflicting writes) so experiments can report
// them separately.
//
// The reassembly key is a plain uint64 chosen by the caller: the realistic
// receiver keys by the AFF identifier; the instrumented ground-truth pass
// (§5.1) keys a second Reassembler by the guaranteed-unique packet id. The
// algorithm is identical either way, which is exactly the paper's point.
//
// Every frame a node hears passes through here, so steady-state reassembly
// allocates nothing: entries live in a slot slab that grows on demand up to
// max_entries and recycles closed slots with their buffers' capacity; an
// entry's buffers are sized once, from its intro's announced length; a key
// finds its slot through an open-addressed index; coverage is a bitmap
// checked 64 bytes per word; and the LRU list is threaded through the
// slots. Delivery hands the handler a view into the slot's buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace retri::aff {

struct ReassemblerConfig {
  /// Entries receiving no fragment for this long are discarded on expire().
  sim::Duration timeout = sim::Duration::seconds(10);
  /// Hard cap on simultaneously tracked packets; beyond it the least
  /// recently updated entry is evicted (counted as evicted, not timeout).
  std::size_t max_entries = 1024;
};

/// Checks a ReassemblerConfig's invariants: timeout must be positive and
/// max_entries nonzero. Returns the config unchanged, throws
/// std::invalid_argument naming the offending field otherwise. Reassembler
/// calls this on construction.
ReassemblerConfig validated(ReassemblerConfig config);

/// Why an entry left the reassembly table. Every close goes through this
/// enum exactly once, which is also what guarantees each reassembly span
/// ends exactly once with a truthful outcome.
enum class CloseReason : std::uint8_t {
  kDelivered,       // checksum verified, packet handed to the deliver fn
  kChecksumFailed,  // fully covered but the checksum disagreed (collision)
  kTimeout,         // idle past ReassemblerConfig.timeout
  kEvicted,         // displaced by LRU pressure at max_entries
};

std::string_view to_string(CloseReason reason) noexcept;

/// Point-in-time view of the reassembler's tallies, built from the
/// "<prefix>*" counters in the backing obs::MetricsRegistry. stats()
/// returns one BY VALUE — re-call it to observe later events.
struct ReassemblerStatsSnapshot {
  std::uint64_t delivered = 0;
  std::uint64_t checksum_failed = 0;
  /// Fragments that rewrote an already-received byte with different
  /// content — the smoking gun of an identifier collision.
  std::uint64_t conflicting_writes = 0;
  std::uint64_t duplicate_fragments = 0;   // identical re-deliveries
  std::uint64_t timeouts = 0;
  std::uint64_t evicted = 0;
  std::uint64_t malformed = 0;             // offset/length inconsistencies
  /// Data fragments with no live, introduced entry under their key — the
  /// packet's introduction was lost (or its entry already closed), so the
  /// fragment cannot be attributed to any announced packet and is dropped.
  std::uint64_t orphan_fragments = 0;
  /// Fragments that passed the malformed/orphan gates and were written
  /// into an entry. Conservation law (asserted by the chaos harness):
  ///   fragments_seen == accepted_fragments + malformed + orphan_fragments.
  std::uint64_t accepted_fragments = 0;
  std::uint64_t fragments_seen = 0;
};

class Reassembler {
 public:
  /// Invoked with the verified packet when reassembly completes. The view
  /// points into the entry's buffer and is valid only during the call; a
  /// handler that keeps the packet copies it. The handler must not feed
  /// this Reassembler.
  using DeliverFn =
      std::function<void(std::uint64_t key, util::BytesView packet)>;
  /// Invoked whenever an entry closes for any reason (delivered, checksum
  /// failure, timeout, eviction). Drives transaction-density bookkeeping.
  using ClosedFn = std::function<void(std::uint64_t key)>;

  /// `hooks` wires the reassembler into a shared metrics registry (counter
  /// names are `metric_prefix` + field, e.g. "n3.aff.rx.delivered") and,
  /// when hooks.spans is set, opens one span per reassembly entry — begun
  /// when the entry is created, annotated with the key, ended exactly once
  /// with the CloseReason as its outcome — with accepted fragments recorded
  /// as instants parented to that span. `track` is the span track (node id)
  /// events are drawn on. Default hooks fall back to a private registry so
  /// stats() keeps working standalone.
  explicit Reassembler(ReassemblerConfig config = {}, obs::Hooks hooks = {},
                       std::string metric_prefix = "reassembler.",
                       std::uint32_t track = 0);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_closed(ClosedFn fn) { closed_ = std::move(fn); }

  /// Processes an introduction fragment for `key`.
  void on_intro(std::uint64_t key, std::uint16_t total_len,
                std::uint32_t checksum, sim::TimePoint now);

  /// Processes a data fragment for `key`. Reassembly is introduction-
  /// anchored (the intro precedes the data on the paper's serial radio):
  /// a data fragment whose key has no live introduced entry is dropped as
  /// an orphan — without the introduction's length and checksum the packet
  /// could never be delivered, and buffering unattributed bytes would let
  /// a dead packet's tail poison the next packet that reuses the id.
  void on_data(std::uint64_t key, std::uint16_t offset, util::BytesView payload,
               sim::TimePoint now);

  /// Discards entries idle past the timeout. The driver calls this
  /// periodically from a simulator timer.
  void expire(sim::TimePoint now);

  /// True if a packet under `key` is currently being reassembled.
  bool pending(std::uint64_t key) const noexcept { return find(key) != kNoSlot; }
  std::size_t pending_count() const noexcept { return live_; }
  /// Snapshot of the tallies, BY VALUE (see ReassemblerStatsSnapshot).
  ReassemblerStatsSnapshot stats() const noexcept;
  /// The conflicting-writes tally alone, for per-frame callers that would
  /// otherwise build a whole stats() snapshot to read one field.
  std::uint64_t conflicting_writes() const noexcept {
    return counters_.conflicting_writes.value();
  }
  /// Span id of the open reassembly under `key`; none() when untracked.
  obs::SpanId span_of(std::uint64_t key) const;

 private:
  /// Index of an entry in slots_; kNoSlot marks an empty index cell and the
  /// ends of the LRU and free lists.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;

  /// One reassembly entry. A closed entry's slot goes on the free list and
  /// keeps its buffers' capacity, so steady-state reassembly allocates
  /// nothing.
  struct Entry {
    std::uint64_t key = 0;
    std::uint16_t total_len = 0;
    std::uint32_t checksum = 0;
    /// Packet bytes, sized to total_len and zero-filled by the intro that
    /// opened or restarted the entry, so bytes no fragment wrote read as
    /// zero. Only a write past that size (a longer colliding packet) grows
    /// it, zero-filling the gap the same way.
    util::Bytes bytes;
    /// Coverage bitmap, one bit per byte of `bytes`; bits past bytes.size()
    /// are always clear.
    std::vector<std::uint64_t> have;
    std::size_t covered = 0;  // set bits in `have`, past total_len included
    sim::TimePoint last_update;
    Slot prev = kNoSlot;  // LRU neighbours; `next` also links the free list
    Slot next = kNoSlot;
    obs::SpanId span;     // open reassembly span, none() when unhooked
  };

  /// Registry-backed counter handles, one per snapshot field, plus the
  /// live-entry gauge. Registered once at construction.
  struct Counters {
    obs::Counter delivered;
    obs::Counter checksum_failed;
    obs::Counter conflicting_writes;
    obs::Counter duplicate_fragments;
    obs::Counter timeouts;
    obs::Counter evicted;
    obs::Counter malformed;
    obs::Counter orphan_fragments;
    obs::Counter accepted_fragments;
    obs::Counter fragments_seen;
    obs::Gauge pending;
  };

  /// Creates the entry for a new `key`, evicting the least recently
  /// updated entry first when the table is full.
  Slot open(std::uint64_t key, sim::TimePoint now);
  /// Marks `slot` most recently updated at `now`.
  void touch(Slot slot, sim::TimePoint now);
  /// The single exit point of the entry table: counts by reason, ends the
  /// entry's span with the reason as outcome, unlinks and frees the slot,
  /// and notifies closed_.
  void close(Slot slot, CloseReason reason, sim::TimePoint now);
  void maybe_complete(Slot slot, sim::TimePoint now);
  void write_bytes(Entry& entry, std::size_t offset, util::BytesView payload);
  void fragment_instant(const char* name, const Entry& entry,
                        sim::TimePoint now, std::size_t bytes);

  // LRU list (least recently updated at lru_head_).
  void lru_unlink(Slot slot) noexcept;
  void lru_append(Slot slot) noexcept;

  // Open-addressed key -> slot index: linear probing over a power-of-two
  // table kept at most half full, backward-shift deletion (no tombstones).
  std::size_t home(std::uint64_t key) const noexcept;
  Slot find(std::uint64_t key) const noexcept;
  void index_insert(Slot slot);
  void index_erase(std::uint64_t key) noexcept;

  ReassemblerConfig config_;
  DeliverFn deliver_;
  ClosedFn closed_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // fallback registry
  obs::SpanRecorder* spans_ = nullptr;
  std::uint32_t track_ = 0;
  Counters counters_;
  /// Entry slab, grown on demand up to config_.max_entries.
  std::vector<Entry> slots_;
  Slot free_head_ = kNoSlot;
  Slot lru_head_ = kNoSlot;
  Slot lru_tail_ = kNoSlot;
  std::size_t live_ = 0;
  std::vector<Slot> index_;  // empty until the first entry opens
  unsigned index_shift_ = 64;  // 64 - log2(index_.size())
};

}  // namespace retri::aff
