#include "aff/reassembler.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/checksum.hpp"
#include "util/validate.hpp"

namespace retri::aff {

ReassemblerConfig validated(ReassemblerConfig config) {
  util::Validator v{"ReassemblerConfig"};
  v.positive_seconds("timeout", config.timeout.to_seconds());
  v.at_least("max_entries", config.max_entries, 1);
  return config;
}

std::string_view to_string(CloseReason reason) noexcept {
  switch (reason) {
    case CloseReason::kDelivered: return "delivered";
    case CloseReason::kChecksumFailed: return "checksum_failed";
    case CloseReason::kTimeout: return "timeout";
    case CloseReason::kEvicted: return "evicted";
  }
  return "unknown";
}

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
  const Slot slot = find(key);
  return slot != kNoSlot ? slots_[slot].span : obs::SpanId::none();
}

void Reassembler::fragment_instant(const char* name, const Entry& entry,
                                   sim::TimePoint now, std::size_t bytes) {
  if (spans_ == nullptr) return;
  spans_->instant(name, "aff", track_, now, entry.span,
                  static_cast<std::uint64_t>(bytes));
}

// --- key -> slot index --------------------------------------------------

std::size_t Reassembler::home(std::uint64_t key) const noexcept {
  // Fibonacci hashing: the top bits of key * 2^64/phi spread both small AFF
  // ids and (node << 32 | seq) ground-truth ids over the table.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                  index_shift_);
}

Reassembler::Slot Reassembler::find(std::uint64_t key) const noexcept {
  if (index_.empty()) return kNoSlot;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot slot = index_[i];
    if (slot == kNoSlot || slots_[slot].key == key) return slot;
  }
}

void Reassembler::index_insert(Slot slot) {
  if (2 * (live_ + 1) > index_.size()) {
    std::vector<Slot> old = std::move(index_);
    const std::size_t size = old.empty() ? 16 : 2 * old.size();
    index_.assign(size, kNoSlot);
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    for (const Slot s : old) {
      if (s != kNoSlot) index_insert(s);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(slots_[slot].key);
  while (index_[i] != kNoSlot) i = (i + 1) & mask;
  index_[i] = slot;
}

void Reassembler::index_erase(std::uint64_t key) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(key);
  while (slots_[index_[hole]].key != key) hole = (hole + 1) & mask;
  // Backward shift: pull each later cell of the probe run into the hole
  // unless that would move it before its home cell.
  for (std::size_t j = (hole + 1) & mask; index_[j] != kNoSlot;
       j = (j + 1) & mask) {
    const std::size_t h = home(slots_[index_[j]].key);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kNoSlot;
}

// --- LRU list -----------------------------------------------------------

void Reassembler::lru_unlink(Slot slot) noexcept {
  Entry& e = slots_[slot];
  (e.prev != kNoSlot ? slots_[e.prev].next : lru_head_) = e.next;
  (e.next != kNoSlot ? slots_[e.next].prev : lru_tail_) = e.prev;
  e.prev = e.next = kNoSlot;
}

void Reassembler::lru_append(Slot slot) noexcept {
  Entry& e = slots_[slot];
  e.prev = lru_tail_;
  e.next = kNoSlot;
  (lru_tail_ != kNoSlot ? slots_[lru_tail_].next : lru_head_) = slot;
  lru_tail_ = slot;
}

// --- entry lifecycle ----------------------------------------------------

Reassembler::Slot Reassembler::open(std::uint64_t key, sim::TimePoint now) {
  if (live_ >= config_.max_entries) {
    // Evict the least recently updated packet to bound memory — a real
    // driver on a sensor node has a small fixed reassembly table.
    close(lru_head_, CloseReason::kEvicted, now);
  }
  Slot slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next;
  } else {
    slot = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
  }
  Entry& e = slots_[slot];
  e.key = key;
  e.span = obs::SpanId::none();
  lru_append(slot);
  index_insert(slot);
  ++live_;
  if (spans_ != nullptr) {
    e.span = spans_->begin("reassembly", "aff", track_, now);
    spans_->annotate(e.span, "key", key);
  }
  counters_.pending.set(static_cast<std::int64_t>(live_));
  return slot;
}

void Reassembler::touch(Slot slot, sim::TimePoint now) {
  if (slot != lru_tail_) {
    lru_unlink(slot);
    lru_append(slot);
  }
  slots_[slot].last_update = now;
}

void Reassembler::close(Slot slot, CloseReason reason, sim::TimePoint now) {
  Entry& e = slots_[slot];
  const std::uint64_t key = e.key;
  switch (reason) {
    case CloseReason::kDelivered: counters_.delivered.inc(); break;
    case CloseReason::kChecksumFailed: counters_.checksum_failed.inc(); break;
    case CloseReason::kTimeout: counters_.timeouts.inc(); break;
    case CloseReason::kEvicted: counters_.evicted.inc(); break;
  }
  if (spans_ != nullptr && e.span.valid()) {
    spans_->end(e.span, now, to_string(reason));
  }
  lru_unlink(slot);
  index_erase(key);
  // The buffers keep their capacity: the next intro in this slot resizes
  // them in place.
  e.next = free_head_;
  free_head_ = slot;
  --live_;
  counters_.pending.set(static_cast<std::int64_t>(live_));
  if (closed_) closed_(key);
}

void Reassembler::write_bytes(Entry& entry, std::size_t offset,
                              util::BytesView payload) {
  const std::size_t end = offset + payload.size();
  if (entry.bytes.size() < end) {
    // Past the announced length: a longer packet collided under this key.
    entry.bytes.resize(end, 0);
    entry.have.resize((end + 63) / 64, 0);
  }
  // Walk the coverage bitmap one 64-bit word at a time: bytes already
  // covered are compared against the payload (a difference is a
  // conflict), the rest are newly covered.
  bool conflicted = false;
  std::size_t fresh = 0;
  for (std::size_t pos = offset; pos < end;) {
    const std::size_t word = pos / 64;
    const std::size_t bit = pos % 64;
    const std::size_t n = std::min(64 - bit, end - pos);
    const std::uint64_t mask = (n == 64 ? ~0ULL : (1ULL << n) - 1) << bit;
    const std::uint64_t seen = entry.have[word] & mask;
    if (seen == mask) {
      conflicted = conflicted ||
                   std::memcmp(entry.bytes.data() + pos,
                               payload.data() + (pos - offset), n) != 0;
    } else {
      for (std::uint64_t m = seen; m != 0 && !conflicted; m &= m - 1) {
        const std::size_t at =
            word * 64 + static_cast<std::size_t>(std::countr_zero(m));
        conflicted = entry.bytes[at] != payload[at - offset];
      }
      fresh += static_cast<std::size_t>(std::popcount(mask & ~seen));
      entry.have[word] |= mask;
    }
    pos += n;
  }
  // Last write wins, like the real driver.
  std::copy(payload.begin(), payload.end(),
            entry.bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  entry.covered += fresh;
  if (conflicted) counters_.conflicting_writes.inc();
  else if (fresh == 0) counters_.duplicate_fragments.inc();
}

void Reassembler::maybe_complete(Slot slot, sim::TimePoint now) {
  const Entry& entry = slots_[slot];
  if (entry.covered < entry.total_len) return;
  // All bytes of the announced length are present. Bytes beyond total_len
  // (from a colliding longer packet) are ignored; the checksum decides.
  const util::BytesView packet(entry.bytes.data(), entry.total_len);
  const bool valid = util::crc32(packet) == entry.checksum;
  if (valid && deliver_) deliver_(entry.key, packet);
  close(slot, valid ? CloseReason::kDelivered : CloseReason::kChecksumFailed,
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
  Slot slot = find(key);
  const bool fresh = slot == kNoSlot;
  if (fresh) slot = open(key, now);
  touch(slot, now);
  Entry& entry = slots_[slot];
  fragment_instant("frag_intro", entry, now, 0);
  const bool restart =
      !fresh && (entry.total_len != total_len || entry.checksum != checksum);
  // A second, different introduction under the same key. Either an
  // identifier collision between two *concurrent* packets, or ordinary
  // sequential reuse of the identifier (a new transaction). The driver
  // cannot tell which, so it adopts the new announcement and restarts
  // assembly: concurrent colliders still interleave fragments into the
  // fresh entry and die at the checksum, while sequential reuse — the
  // common case under small id spaces — starts clean instead of
  // inheriting a dead packet's bytes.
  if (restart) counters_.conflicting_writes.inc();
  if (fresh || restart) {
    // Size the entry once, for the announced packet; assign() reuses the
    // slot's capacity and zero-fills, so unwritten bytes read as zero.
    entry.bytes.assign(total_len, 0);
    entry.have.assign((std::size_t{total_len} + 63) / 64, 0);
    entry.covered = 0;
  }
  entry.total_len = total_len;
  entry.checksum = checksum;
  maybe_complete(slot, now);
}

void Reassembler::on_data(std::uint64_t key, std::uint16_t offset,
                          util::BytesView payload, sim::TimePoint now) {
  counters_.fragments_seen.inc();
  if (payload.empty() ||
      static_cast<std::size_t>(offset) + payload.size() > 0x10000) {
    counters_.malformed.inc();
    return;
  }
  const Slot slot = find(key);
  if (slot == kNoSlot) {
    counters_.orphan_fragments.inc();
    return;
  }
  counters_.accepted_fragments.inc();
  touch(slot, now);
  Entry& entry = slots_[slot];
  fragment_instant("frag_data", entry, now, payload.size());
  write_bytes(entry, offset, payload);
  maybe_complete(slot, now);
}

void Reassembler::expire(sim::TimePoint now) {
  // LRU order is also idle order: the head is the longest-idle entry.
  while (lru_head_ != kNoSlot &&
         now - slots_[lru_head_].last_update >= config_.timeout) {
    close(lru_head_, CloseReason::kTimeout, now);
  }
}

}  // namespace retri::aff
