#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>

namespace retri::sim {

namespace detail {

void LadderQueue::push(const QueueEntry& e) {
  if (size_ == 0) {
    // Empty queue: re-anchor the window at the new entry and drop back to
    // the default bucket width. Without the re-anchor, a push below a
    // parked front (e.g. after a cancel-heavy drain that never advanced
    // the clock) would burn the bounded front rung and force an evacuation
    // cycle; without the width reset, a coarse shift left over from a
    // far-future rebase would cram a fresh burst of near-future events
    // into one bucket and re-sort it on every interleaved pop.
    shift_ = kDefaultShift;
    cur_abs_ = time_key(e) >> shift_;
  }
  const std::uint64_t abs = time_key(e) >> shift_;
  if (abs >= cur_abs_ + kNumBuckets) {
    overflow_.push_back(e);
    overflow_min_abs_ = std::min(overflow_min_abs_, abs);
    ++size_;
    return;
  }
  if (abs < cur_abs_) {
    // The front bucket is parked at a far-future minimum (run_until moved
    // the clock without popping); this entry is earlier than everything in
    // the wheel and overflow, so it goes to the small sorted front rung.
    if (front_.size() >= kMaxFrontRung) {
      evacuate_and_push(e);
      return;
    }
    const auto pos = std::upper_bound(
        front_.begin(), front_.end(), e,
        [](const QueueEntry& a, const QueueEntry& b) noexcept {
          return entry_less(b, a);  // descending; min stays at back()
        });
    front_.insert(pos, e);
    ++size_;
    return;
  }
  Bucket& b = bucket_at(abs);
  if (b.items.capacity() == 0) take_spare(b);
  b.items.push_back(e);
  b.sorted = false;
  ++wheel_count_;
  ++size_;
}

void LadderQueue::take_spare(Bucket& b) {
  if (spare_.empty()) return;
  b.items = std::move(spare_.back());
  spare_.pop_back();
  if (b.items.capacity() < spare_cap_hwm_) b.items.reserve(spare_cap_hwm_);
}

void LadderQueue::recycle_bucket(Bucket& b) {
  b.head = 0;
  b.sorted = true;
  if (b.items.capacity() != 0) {
    b.items.clear();
    spare_cap_hwm_ = std::max(spare_cap_hwm_, b.items.capacity());
    if (b.items.capacity() < spare_cap_hwm_) b.items.reserve(spare_cap_hwm_);
    spare_.push_back(std::move(b.items));
    b.items = std::vector<QueueEntry>{};
  }
}

void LadderQueue::pull_overflow_into_window() {
  // Invariant: the window [cur_abs_, cur_abs_ + kNumBuckets) must never slide
  // past the earliest overflow entry, or a later push inside the widened
  // window could pop before that older entry. Transfer any overflow entries
  // the advancing front has brought into range.
  if (cur_abs_ + kNumBuckets <= overflow_min_abs_) return;
  const std::uint64_t limit = cur_abs_ + kNumBuckets;
  std::uint64_t new_min = ~std::uint64_t{0};
  std::size_t keep = 0;
  for (const QueueEntry& e : overflow_) {
    const std::uint64_t abs = time_key(e) >> shift_;
    if (abs < limit) {
      Bucket& b = bucket_at(abs);
      if (b.items.capacity() == 0) take_spare(b);
      b.items.push_back(e);
      b.sorted = false;
      ++wheel_count_;
    } else {
      new_min = std::min(new_min, abs);
      overflow_[keep++] = e;
    }
  }
  overflow_.resize(keep);
  overflow_min_abs_ = new_min;
}

bool LadderQueue::position_front() {
  if (wheel_count_ == 0) {
    if (overflow_.empty()) return false;
    rebase();
  }
  // wheel_count_ > 0: a non-empty bucket exists within the window, so this
  // walk is bounded by kNumBuckets slots.
  Bucket* b = &bucket_at(cur_abs_);
  while (b->head >= b->items.size()) {
    recycle_bucket(*b);
    ++cur_abs_;
    pull_overflow_into_window();
    b = &bucket_at(cur_abs_);
  }
  if (!b->sorted) {
    std::sort(b->items.begin() + static_cast<std::ptrdiff_t>(b->head),
              b->items.end(), entry_less);
    b->sorted = true;
  }
  return true;
}

const QueueEntry* LadderQueue::peek() {
  if (!front_.empty()) return &front_.back();
  if (!position_front()) return nullptr;
  Bucket& b = bucket_at(cur_abs_);
  return &b.items[b.head];
}

QueueEntry LadderQueue::pop() {
  assert(size_ > 0 && "pop on an empty LadderQueue");
  if (front_.empty()) {
    const bool positioned = position_front();
    assert(positioned);
    (void)positioned;
  }
  return pop_peeked();
}

QueueEntry LadderQueue::pop_peeked() {
  assert(size_ > 0 && "pop on an empty LadderQueue");
  if (!front_.empty()) {
    const QueueEntry e = front_.back();
    front_.pop_back();
    --size_;
    return e;
  }
  Bucket& b = bucket_at(cur_abs_);
  const QueueEntry e = b.items[b.head++];
  --size_;
  --wheel_count_;
  if (b.head == b.items.size()) recycle_bucket(b);
  return e;
}

void LadderQueue::rebase() {
  assert(wheel_count_ == 0 && front_.empty() && !overflow_.empty());
  std::uint64_t mn = ~std::uint64_t{0};
  std::uint64_t mx = 0;
  for (const QueueEntry& e : overflow_) {
    mn = std::min(mn, time_key(e));
    mx = std::max(mx, time_key(e));
  }
  // Width policy: smallest power-of-two bucket width such that the overflow
  // span covers at most half the window — dense clusters get fine buckets,
  // sparse horizons get coarse ones, and the half-window slack leaves room
  // for events scheduled just past the span during the lap.
  const std::uint64_t range = mx - mn;
  unsigned shift = kMinShift;
  while (shift < kMaxShift && (range >> shift) >= kNumBuckets / 2) ++shift;
  shift_ = shift;
  cur_abs_ = mn >> shift_;
  const std::uint64_t limit = cur_abs_ + kNumBuckets;
  std::uint64_t new_min = ~std::uint64_t{0};
  std::size_t keep = 0;
  for (const QueueEntry& e : overflow_) {
    const std::uint64_t abs = time_key(e) >> shift_;
    if (abs < limit) {
      Bucket& b = bucket_at(abs);
      if (b.items.capacity() == 0) take_spare(b);
      b.items.push_back(e);
      b.sorted = false;
      ++wheel_count_;
    } else {
      // Beyond even the widest window (shift capped): stays for the next
      // rebase. Progress is guaranteed — the minimum always transfers.
      new_min = std::min(new_min, abs);
      overflow_[keep++] = e;
    }
  }
  overflow_.resize(keep);
  overflow_min_abs_ = new_min;
}

void LadderQueue::evacuate_and_push(const QueueEntry& e) {
  overflow_.push_back(e);
  ++size_;
  for (Bucket& b : buckets_) {
    for (std::size_t i = b.head; i < b.items.size(); ++i) {
      overflow_.push_back(b.items[i]);
    }
    recycle_bucket(b);
  }
  overflow_.insert(overflow_.end(), front_.begin(), front_.end());
  front_.clear();
  wheel_count_ = 0;
  rebase();
}

}  // namespace detail

void EventHandle::cancel() noexcept {
  if (slab_ == nullptr || !slab_->live(slot_, gen_)) return;
  slab_->release(slot_);
}

bool EventHandle::pending() const noexcept {
  return slab_ != nullptr && slab_->live(slot_, gen_);
}

Simulator::Simulator() : slab_(new detail::EventSlab) {}

Simulator::~Simulator() {
  // Take the slots out before destroying them: a dying callable may own a
  // handle into this slab, and its cancel() must find no live slot rather
  // than a half-destroyed one.
  std::vector<detail::EventSlot> pending;
  pending.swap(slab_->slots);
  slab_->free_head = detail::kNoSlot;
  pending.clear();
  detail::unref(slab_);
}

EventHandle Simulator::schedule_at(TimePoint t, EventFn fn) {
  assert(t >= now_ && "cannot schedule into the past");
  const std::uint32_t slot = slab_->acquire();
  detail::EventSlot& s = slab_->slots[slot];
  s.fn = std::move(fn);
  queue_.push(detail::QueueEntry{t, next_seq_++, slot, s.gen});
  return EventHandle{slab_, slot, s.gen};
}

EventHandle Simulator::schedule_after(Duration delay, EventFn fn) {
  assert(delay >= Duration{} && "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

const detail::QueueEntry* Simulator::skip_stale() {
  const detail::QueueEntry* top = queue_.peek();
  while (top != nullptr && !slab_->live(top->slot, top->gen)) {
    queue_.pop_peeked();
    top = queue_.peek();
  }
  return top;
}

bool Simulator::step() {
  if (skip_stale() == nullptr) return false;
  fire_front();
  return true;
}

void Simulator::fire_front() {
  const detail::QueueEntry top = queue_.pop_peeked();
  now_ = top.t;
  ++fired_;
  // Move the callable out and recycle the slot before firing: the callback
  // may schedule new events (growing the slab) or cancel its own handle —
  // the released slot makes both safe.
  EventFn fn = std::move(slab_->slots[top.slot].fn);
  slab_->release(top.slot);
  fn();
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  std::uint64_t n = 0;
  for (;;) {
    const detail::QueueEntry* top = skip_stale();
    if (top == nullptr || top->t > deadline) break;
    fire_front();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Simulator::empty() const noexcept {
  // Note: may report false when only cancelled events remain; run()/step()
  // still terminate correctly because skip_stale drains them.
  return queue_.empty();
}

std::size_t Simulator::queued() const noexcept { return queue_.size(); }

}  // namespace retri::sim
