// Test-only reference: the AFF Reassembler as it was before its slab
// rewrite (per-entry unordered_map node, byte vector, per-byte vector<bool>
// coverage and std::list LRU), kept verbatim apart from its namespace. The
// differential fuzz in test_reassembler_diff.cpp feeds it and the
// production aff::Reassembler the same fragment stream and requires
// identical deliveries, closes, counters and spans. It shares the
// production config, close-reason and stats types.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "aff/reassembler.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace retri::aff::reference {

class Reassembler {
 public:
  /// Invoked with the verified packet when reassembly completes.
  using DeliverFn = std::function<void(std::uint64_t key, const util::Bytes&)>;
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
  bool pending(std::uint64_t key) const { return entries_.contains(key); }
  std::size_t pending_count() const noexcept { return entries_.size(); }
  /// Snapshot of the tallies, BY VALUE (see ReassemblerStatsSnapshot).
  ReassemblerStatsSnapshot stats() const noexcept;
  /// Span id of the open reassembly under `key`; none() when untracked.
  obs::SpanId span_of(std::uint64_t key) const;

 private:
  struct Entry {
    bool have_intro = false;
    std::uint16_t total_len = 0;
    std::uint32_t checksum = 0;
    util::Bytes bytes;          // grows to the max extent seen
    std::vector<bool> have;     // per-byte coverage
    std::size_t covered = 0;
    sim::TimePoint last_update;
    std::list<std::uint64_t>::iterator lru_pos;
    obs::SpanId span;           // open reassembly span, none() when unhooked
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

  Entry& touch(std::uint64_t key, sim::TimePoint now);
  /// The single exit point of the entry table: counts by reason, ends the
  /// entry's span with the reason as outcome, and notifies closed_.
  void close(std::uint64_t key, CloseReason reason, sim::TimePoint now);
  void maybe_complete(std::uint64_t key, Entry& entry, sim::TimePoint now);
  void write_bytes(Entry& entry, std::size_t offset, util::BytesView payload);
  void fragment_instant(const char* name, const Entry& entry,
                        sim::TimePoint now, std::size_t bytes);

  ReassemblerConfig config_;
  DeliverFn deliver_;
  ClosedFn closed_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // fallback registry
  obs::SpanRecorder* spans_ = nullptr;
  std::uint32_t track_ = 0;
  Counters counters_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // least recently updated at front
};

}  // namespace retri::aff::reference
