#include "sim/engine.hpp"

#include <cassert>

namespace retri::sim {

void EventHandle::cancel() noexcept {
  if (slab_ == nullptr || !slab_->live(key_)) return;
  slab_->release(detail::key_slot(key_));
}

bool EventHandle::pending() const noexcept {
  return slab_ != nullptr && slab_->live(key_);
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
  const std::uint64_t key = slab_->acquire(next_seq_);
  ++next_seq_;
  slab_->slots[detail::key_slot(key)].fn = std::move(fn);
  queue_.push(detail::QueueEntry{t, key});
  return EventHandle{slab_, key};
}

EventHandle Simulator::schedule_after(Duration delay, EventFn fn) {
  assert(delay >= Duration{} && "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

const detail::QueueEntry* Simulator::skip_stale() {
  const detail::QueueEntry* top = queue_.peek();
  while (top != nullptr && !slab_->live(top->key)) {
    queue_.pop();
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
  const detail::QueueEntry top = queue_.pop();
  now_ = top.t;
  ++fired_;
  // Move the callable out and recycle the slot before firing: the callback
  // may schedule new events (growing the slab) or cancel its own handle —
  // the released slot makes both safe.
  const std::uint32_t slot = detail::key_slot(top.key);
  EventFn fn = std::move(slab_->slots[slot].fn);
  slab_->release(slot);
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
