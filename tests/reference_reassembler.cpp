#include "reference_reassembler.hpp"

#include <algorithm>
#include <utility>

#include "util/checksum.hpp"

namespace retri::aff::reference {

Reassembler::Reassembler(ReassemblerConfig config, obs::Hooks hooks,
                         std::string metric_prefix, std::uint32_t track)
    : config_(validated(config)),
      owned_metrics_(hooks.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      spans_(hooks.spans),
      track_(track) {
  obs::MetricsRegistry& m =
      hooks.metrics != nullptr ? *hooks.metrics : *owned_metrics_;
  const auto name = [&metric_prefix](const char* field) {
    return metric_prefix + field;
  };
  counters_.delivered = m.counter(name("delivered"));
  counters_.checksum_failed = m.counter(name("checksum_failed"));
  counters_.conflicting_writes = m.counter(name("conflicting_writes"));
  counters_.duplicate_fragments = m.counter(name("duplicate_fragments"));
  counters_.timeouts = m.counter(name("timeouts"));
  counters_.evicted = m.counter(name("evicted"));
  counters_.malformed = m.counter(name("malformed"));
  counters_.orphan_fragments = m.counter(name("orphan_fragments"));
  counters_.accepted_fragments = m.counter(name("accepted_fragments"));
  counters_.fragments_seen = m.counter(name("fragments_seen"));
  counters_.pending = m.gauge(name("pending"));
}

ReassemblerStatsSnapshot Reassembler::stats() const noexcept {
  ReassemblerStatsSnapshot s;
  s.delivered = counters_.delivered.value();
  s.checksum_failed = counters_.checksum_failed.value();
  s.conflicting_writes = counters_.conflicting_writes.value();
  s.duplicate_fragments = counters_.duplicate_fragments.value();
  s.timeouts = counters_.timeouts.value();
  s.evicted = counters_.evicted.value();
  s.malformed = counters_.malformed.value();
  s.orphan_fragments = counters_.orphan_fragments.value();
  s.accepted_fragments = counters_.accepted_fragments.value();
  s.fragments_seen = counters_.fragments_seen.value();
  return s;
}

obs::SpanId Reassembler::span_of(std::uint64_t key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() ? it->second.span : obs::SpanId::none();
}

void Reassembler::fragment_instant(const char* name, const Entry& entry,
                                   sim::TimePoint now, std::size_t bytes) {
  if (spans_ == nullptr) return;
  spans_->instant(name, "aff", track_, now, entry.span,
                  static_cast<std::uint64_t>(bytes));
}

Reassembler::Entry& Reassembler::touch(std::uint64_t key, sim::TimePoint now) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= config_.max_entries) {
      // Evict the least recently updated packet to bound memory — a real
      // driver on a sensor node has a small fixed reassembly table.
      close(lru_.front(), CloseReason::kEvicted, now);
    }
    it = entries_.emplace(key, Entry{}).first;
    it->second.lru_pos = lru_.insert(lru_.end(), key);
    if (spans_ != nullptr) {
      it->second.span = spans_->begin("reassembly", "aff", track_, now);
      spans_->annotate(it->second.span, "key", key);
    }
    counters_.pending.set(static_cast<std::int64_t>(entries_.size()));
  } else {
    lru_.splice(lru_.end(), lru_, it->second.lru_pos);
  }
  it->second.last_update = now;
  return it->second;
}

void Reassembler::close(std::uint64_t key, CloseReason reason,
                        sim::TimePoint now) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  switch (reason) {
    case CloseReason::kDelivered: counters_.delivered.inc(); break;
    case CloseReason::kChecksumFailed: counters_.checksum_failed.inc(); break;
    case CloseReason::kTimeout: counters_.timeouts.inc(); break;
    case CloseReason::kEvicted: counters_.evicted.inc(); break;
  }
  if (spans_ != nullptr && it->second.span.valid()) {
    spans_->end(it->second.span, now, std::string(to_string(reason)));
  }
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  counters_.pending.set(static_cast<std::int64_t>(entries_.size()));
  if (closed_) closed_(key);
}

void Reassembler::write_bytes(Entry& entry, std::size_t offset,
                              util::BytesView payload) {
  const std::size_t extent = offset + payload.size();
  if (entry.bytes.size() < extent) {
    entry.bytes.resize(extent, 0);
    entry.have.resize(extent, false);
  }
  bool conflicted = false;
  bool all_duplicate = !payload.empty();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const std::size_t pos = offset + i;
    if (entry.have[pos]) {
      if (entry.bytes[pos] != payload[i]) conflicted = true;
    } else {
      entry.have[pos] = true;
      ++entry.covered;
      all_duplicate = false;
    }
    entry.bytes[pos] = payload[i];  // last write wins, like the real driver
  }
  if (conflicted) counters_.conflicting_writes.inc();
  else if (all_duplicate) counters_.duplicate_fragments.inc();
}

void Reassembler::maybe_complete(std::uint64_t key, Entry& entry,
                                 sim::TimePoint now) {
  if (!entry.have_intro) return;
  if (entry.covered < entry.total_len) return;
  // All bytes of the announced length are present. Bytes beyond total_len
  // (from a colliding longer packet) are ignored; the checksum decides.
  const util::BytesView packet(entry.bytes.data(), entry.total_len);
  const bool valid = util::crc32(packet) == entry.checksum;
  if (valid && deliver_) {
    deliver_(key, util::Bytes(packet.begin(), packet.end()));
  }
  close(key, valid ? CloseReason::kDelivered : CloseReason::kChecksumFailed,
        now);
}

void Reassembler::on_intro(std::uint64_t key, std::uint16_t total_len,
                           std::uint32_t checksum, sim::TimePoint now) {
  counters_.fragments_seen.inc();
  if (total_len == 0) {
    counters_.malformed.inc();
    return;
  }
  counters_.accepted_fragments.inc();
  Entry& entry = touch(key, now);
  fragment_instant("frag_intro", entry, now, 0);
  if (entry.have_intro &&
      (entry.total_len != total_len || entry.checksum != checksum)) {
    // A second, different introduction under the same key. Either an
    // identifier collision between two *concurrent* packets, or ordinary
    // sequential reuse of the identifier (a new transaction). The driver
    // cannot tell which, so it adopts the new announcement and restarts
    // assembly: concurrent colliders still interleave fragments into the
    // fresh entry and die at the checksum, while sequential reuse — the
    // common case under small id spaces — starts clean instead of
    // inheriting a dead packet's bytes.
    counters_.conflicting_writes.inc();
    entry.bytes.clear();
    entry.have.clear();
    entry.covered = 0;
  }
  entry.have_intro = true;
  entry.total_len = total_len;
  entry.checksum = checksum;
  maybe_complete(key, entry, now);
}

void Reassembler::on_data(std::uint64_t key, std::uint16_t offset,
                          util::BytesView payload, sim::TimePoint now) {
  counters_.fragments_seen.inc();
  if (payload.empty() ||
      static_cast<std::size_t>(offset) + payload.size() > 0x10000) {
    counters_.malformed.inc();
    return;
  }
  const auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.have_intro) {
    counters_.orphan_fragments.inc();
    return;
  }
  counters_.accepted_fragments.inc();
  Entry& entry = touch(key, now);
  fragment_instant("frag_data", entry, now, payload.size());
  write_bytes(entry, offset, payload);
  maybe_complete(key, entry, now);
}

void Reassembler::expire(sim::TimePoint now) {
  while (!lru_.empty()) {
    // LRU order is also idle order: front is the longest-idle entry.
    const std::uint64_t key = lru_.front();
    const Entry& entry = entries_.at(key);
    if (now - entry.last_update < config_.timeout) break;
    close(key, CloseReason::kTimeout, now);
  }
}

}  // namespace retri::aff::reference
