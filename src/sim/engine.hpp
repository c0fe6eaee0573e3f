// Single-threaded discrete-event simulation engine.
//
// Events are closures ordered by (time, insertion sequence); ties in time
// execute in scheduling order, which keeps every run deterministic. The
// engine is deliberately single-threaded: the paper's experiments are tens
// of nodes over simulated minutes, and determinism (exact reproducibility of
// Figure 4 from a seed) is worth more than parallel speedup (DESIGN.md §5).
//
// The hot path is allocation-free in steady state (DESIGN.md §5e): event
// records live in a slab recycled through a free list, cancellation is a
// key check instead of shared ownership, and the callable is stored in a
// small-buffer-optimized EventFn whose inline storage covers every closure
// the simulation schedules (heap fallback for oversized captures). After
// warmup, schedule → fire → recycle touches no allocator.
//
// Event ordering runs on a 4-ary min-heap of 16-byte entries (DESIGN.md
// §5j). The pop order is the exact global (time, seq) minimum, so golden
// fingerprints and jobs-invariance do not depend on the data structure.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace retri::sim {

/// Small-buffer-optimized, move-only `void()` callable.
///
/// Replaces std::function on the engine hot path: closures whose captures
/// fit kInlineBytes (and are nothrow-movable, so slab growth can relocate
/// them) are stored inline in the event slot; anything larger falls back to
/// one heap allocation. The closures a trial schedules per frame capture a
/// pointer and an index or two (the medium's delivery closure is `[this,
/// batch]`), so they are trivially copyable: moving one copies the inline
/// bytes and destroying one does nothing, with no indirect call. The budget
/// leaves headroom over the biggest closures the simulation schedules (24
/// bytes, measured: the medium's delayed interceptor copy `[this, from,
/// listener, payload]` and the chaos trial's pending-state probe); tests
/// assert representative captures stay inline (test_engine.cpp,
/// test_event_queue.cpp).
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (storage()) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (storage()) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Invokes the stored callable. Precondition: non-empty.
  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventFn");
    ops_->invoke(storage());
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the callable fell back to the heap (capture too large or not
  /// nothrow-movable). Exposed so tests can pin the inline size budget.
  bool uses_heap() const noexcept { return ops_ != nullptr && ops_->heap; }

  /// Destroys the stored callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

 private:
  /// The one relocation rule: what the storage holds (the capture inline,
  /// or the pointer to a heap capture) is relocated by copying its bytes
  /// when it is trivially copyable, which also means destroying it does
  /// nothing; `relocate` and `destroy` are then null.
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs dst from src, then destroys src's value; null when
    // the bytes are copied instead.
    void (*relocate)(void* dst, void* src) noexcept;
    // Null when destroying the stored value does nothing.
    void (*destroy)(void*) noexcept;
    bool heap;
  };

  template <typename Fn>
  static const Ops* inline_ops() noexcept {
    constexpr bool bytewise = std::is_trivially_copyable_v<Fn>;
    static constexpr Ops ops{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        bytewise ? nullptr
                 : +[](void* dst, void* src) noexcept {
                     ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
                     static_cast<Fn*>(src)->~Fn();
                   },
        bytewise ? nullptr
                 : +[](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
        false};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops{
        [](void* p) { (**static_cast<Fn**>(p))(); },
        nullptr,
        [](void* p) noexcept { delete *static_cast<Fn**>(p); },
        true};
    return &ops;
  }

  void move_from(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(storage(), other.storage());
      } else {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void* storage() noexcept { return storage_; }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

namespace detail {

inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// An event's key packs its scheduling sequence number above its slab slot:
/// `seq << kSlotBits | slot`. seq is unique, so ordering entries by
/// (t, key) is ordering them by (t, seq), and the key also names the one
/// event a slot or handle refers to. The all-ones slot field is reserved,
/// so the all-ones key is never live and marks a free slot.
inline constexpr unsigned kSlotBits = 24;
inline constexpr std::uint32_t kSlotLimit = (1u << kSlotBits) - 1;
inline constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kSlotBits);
inline constexpr std::uint64_t kDeadKey = ~std::uint64_t{0};

/// The key of event `seq` in `slot`. Throws std::length_error, rather than
/// wrap, when seq >= kSeqLimit (2^40) or slot >= kSlotLimit (2^24 - 1).
inline std::uint64_t pack_key(std::uint64_t seq, std::uint32_t slot) {
  if (seq >= kSeqLimit) {
    throw std::length_error("sim::Simulator: more than 2^40 events scheduled");
  }
  if (slot >= kSlotLimit) {
    throw std::length_error(
        "sim::Simulator: more than 2^24 - 1 events pending at once");
  }
  return seq << kSlotBits | slot;
}

inline constexpr std::uint32_t key_slot(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key) & ((1u << kSlotBits) - 1);
}

inline constexpr std::uint64_t key_seq(std::uint64_t key) noexcept {
  return key >> kSlotBits;
}

/// One slab slot: the callable plus the key of the event it holds, or
/// kDeadKey while free. A handle or queue entry holding the key it was
/// issued can tell "still the same event" from "slot released or reused",
/// because the next occupant's key carries a different seq.
struct EventSlot {
  EventFn fn;
  std::uint64_t key = kDeadKey;
  std::uint32_t next_free = kNoSlot;
};

/// The slab: slot storage plus an intrusive free list. Reference-counted
/// (once per Simulator, not per event) so EventHandles outliving the
/// simulator stay inert instead of dangling: the dying Simulator empties
/// `slots`, and the last reference deletes the slab.
struct EventSlab {
  std::vector<EventSlot> slots;
  std::uint32_t free_head = kNoSlot;
  // The Simulator's reference plus one per EventHandle. Not atomic: a
  // Simulator and its handles belong to one thread.
  std::size_t refs = 1;

  /// Takes a free slot for event `seq` (growing the slab when none is
  /// free), stores the event's key there and returns it. Throws as
  /// pack_key does, before anything changes.
  std::uint64_t acquire(std::uint64_t seq) {
    const bool reuse = free_head != kNoSlot;
    const std::uint32_t slot =
        reuse ? free_head : static_cast<std::uint32_t>(slots.size());
    const std::uint64_t key = pack_key(seq, slot);
    if (reuse) {
      free_head = slots[slot].next_free;
    } else {
      slots.emplace_back();
    }
    slots[slot].key = key;
    return key;
  }

  /// Destroys the slot's callable, invalidates outstanding handles and
  /// queue entries for it, and recycles the slot.
  void release(std::uint32_t slot) noexcept {
    EventSlot& s = slots[slot];
    s.fn.reset();
    s.key = kDeadKey;
    s.next_free = free_head;
    free_head = slot;
  }

  bool live(std::uint64_t key) const noexcept {
    const std::uint32_t slot = key_slot(key);
    return slot < slots.size() && slots[slot].key == key;
  }
};

inline void unref(EventSlab* slab) noexcept {
  if (--slab->refs == 0) delete slab;
}

/// Queue entries are 16-byte PODs, so a heap node's four children are 64
/// contiguous bytes, one cache line's worth; the callable stays in the slab
/// so queue reordering never touches it.
struct QueueEntry {
  TimePoint t;
  std::uint64_t key;
};

/// The engine's total event order: earliest time first, scheduling order
/// (the key's seq) within a timestamp. seq is unique, so this is a strict
/// total order — any correct priority queue pops the exact same sequence,
/// which is why the choice of queue cannot move a fingerprint.
inline bool entry_less(const QueueEntry& a, const QueueEntry& b) noexcept {
  if (a.t != b.t) return a.t < b.t;
  return a.key < b.key;
}

/// Implicit 4-ary min-heap over QueueEntry in entry_less order (DESIGN.md
/// §5j). Node i's children are 4i+1..4i+4, so a sift-down compares four
/// adjacent entries per level over half the levels of a binary heap. The
/// vector keeps its capacity, so pushes stop allocating once it has held
/// the largest pending set.
class EventHeap {
 public:
  /// Note: counts lazily-cancelled (stale) entries until they are popped.
  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }

  /// The minimum entry, or nullptr when empty. Invalidated by push/pop.
  const QueueEntry* peek() const noexcept {
    return items_.empty() ? nullptr : items_.data();
  }

  void push(const QueueEntry& e) {
    items_.push_back(e);
    std::size_t i = items_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!entry_less(e, items_[parent])) break;
      items_[i] = items_[parent];
      i = parent;
    }
    items_[i] = e;
  }

  /// Removes and returns the minimum entry. Precondition: !empty().
  QueueEntry pop() noexcept {
    assert(!items_.empty() && "pop on an empty EventHeap");
    const QueueEntry top = items_.front();
    const QueueEntry last = items_.back();
    items_.pop_back();
    const std::size_t n = items_.size();
    if (n == 0) return top;
    // Sift the former last entry down from the root.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (entry_less(items_[c], items_[best])) best = c;
      }
      if (!entry_less(items_[best], last)) break;
      items_[i] = items_[best];
      i = best;
    }
    items_[i] = last;
    return top;
  }

 private:
  static constexpr std::size_t kArity = 4;
  std::vector<QueueEntry> items_;
};

}  // namespace detail

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert. Cancelling an already-fired or already-cancelled event is a
/// no-op, so timers can be cancelled unconditionally in destructors. A
/// handle is a (slab, key) pair, the key carrying the slot: once the event
/// fires or is cancelled its slot no longer holds that key, and the handle
/// — including one kept across slab reuse of the same slot — can never
/// affect a later event. The handle holds a reference on the slab, so one
/// that outlives its Simulator (a copy or a move of it too) stays inert
/// instead of dangling. Like the Simulator, a handle belongs to one thread.
class EventHandle {
 public:
  EventHandle() noexcept = default;
  EventHandle(const EventHandle& other) noexcept
      : slab_(other.slab_), key_(other.key_) {
    if (slab_ != nullptr) ++slab_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : slab_(std::exchange(other.slab_, nullptr)), key_(other.key_) {}
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(slab_, other.slab_);
    key_ = other.key_;
    return *this;
  }
  ~EventHandle() {
    if (slab_ != nullptr) detail::unref(slab_);
  }

  /// Prevents the event from firing (if it has not fired yet).
  void cancel() noexcept;

  /// True if the event is still queued and will fire.
  bool pending() const noexcept;

 private:
  friend class Simulator;
  EventHandle(detail::EventSlab* slab, std::uint64_t key) noexcept
      : slab_(slab), key_(key) {
    ++slab_->refs;
  }

  detail::EventSlab* slab_ = nullptr;
  std::uint64_t key_ = detail::kDeadKey;
};

class Simulator {
 public:
  Simulator();
  /// Destroys every pending callable; handles to them go inert.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `t`. `t` must be >= now().
  /// Throws std::length_error (scheduling nothing) past 2^40 events in
  /// the Simulator's life or 2^24 - 1 pending at once.
  EventHandle schedule_at(TimePoint t, EventFn fn);

  /// Schedules `fn` to run `delay` after now(). `delay` must be >= 0.
  EventHandle schedule_after(Duration delay, EventFn fn);

  /// Runs events until the queue is empty or `max_events` have fired.
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = ~std::uint64_t{0});

  /// Runs events with time <= deadline, then advances the clock to exactly
  /// `deadline` (even if the queue still holds later events). Returns the
  /// number of events fired.
  std::uint64_t run_until(TimePoint deadline);

  /// Fires the single earliest event; false if the queue is empty.
  bool step();

  bool empty() const noexcept;
  std::size_t queued() const noexcept;
  std::uint64_t events_fired() const noexcept { return fired_; }

 private:
  /// Pops entries whose slot no longer holds their key (cancelled events)
  /// off the queue head, then returns the live minimum (nullptr when
  /// drained).
  const detail::QueueEntry* skip_stale();

  /// Pops and fires the live minimum skip_stale() just returned.
  void fire_front();

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  // One allocation per Simulator (not per event); reference-counted so
  // handles that outlive the simulator expire instead of dangling.
  detail::EventSlab* slab_;
  detail::EventHeap queue_;
};

}  // namespace retri::sim
