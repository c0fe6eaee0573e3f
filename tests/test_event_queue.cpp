// Edge-case coverage for the 4-ary event heap behind the event engine
// (sim/engine.hpp, DESIGN.md §5j): same-timestamp FIFO, cancel-then-refill,
// far-future clusters, interleaved drain and push, and randomized
// differential tests against a binary-heap oracle, one of them deep enough
// to exercise every level of a 50,000-entry heap. The oracle deliberately
// uses std::priority_queue — the no-priority-queue-sim lint rule scopes to
// src/sim/ only, and an independent implementation is the point of the
// test.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/random.hpp"

namespace retri::sim {
namespace {

detail::QueueEntry entry_at(std::int64_t t_ns, std::uint64_t seq,
                            std::uint32_t slot = 0) {
  return detail::QueueEntry{TimePoint::origin() + Duration::nanoseconds(t_ns),
                            detail::pack_key(seq, slot)};
}

std::uint64_t seq_of(const detail::QueueEntry& e) {
  return detail::key_seq(e.key);
}

struct OracleGreater {
  bool operator()(const detail::QueueEntry& a,
                  const detail::QueueEntry& b) const noexcept {
    return detail::entry_less(b, a);
  }
};
using Oracle = std::priority_queue<detail::QueueEntry,
                                   std::vector<detail::QueueEntry>,
                                   OracleGreater>;

// A burst of ties pushed after a far-future entry, as run_until leaves a
// queue whose head is far ahead of the clock, must pop before that entry
// and in scheduling (seq) order.
TEST(EventHeap, SameTimestampTiesPopInSchedulingOrder) {
  detail::EventHeap q;
  const std::int64_t far_ns = 10'000'000'000;  // 10 s
  q.push(entry_at(far_ns, 1'000'000));
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    q.push(entry_at(1'000'000, seq));
  }
  ASSERT_EQ(q.size(), 101u);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const detail::QueueEntry* top = q.peek();
    ASSERT_NE(top, nullptr);
    EXPECT_EQ(seq_of(*top), seq);
    EXPECT_EQ(seq_of(q.pop()), seq);
  }
  EXPECT_EQ(seq_of(q.pop()), 1'000'000u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek(), nullptr);
}

// Cancelled events stay queued as stale entries (lazy cancel); refilling
// the same timestamps must neither resurrect them nor disturb the order of
// the replacements.
TEST(EventHeap, CancelThenRefillFiresOnlyReplacements) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> stale(100);
  for (int i = 0; i < 100; ++i) {
    stale[static_cast<std::size_t>(i)] = sim.schedule_after(
        Duration::nanoseconds(1'000 + i), [&order] { order.push_back(-1); });
  }
  for (EventHandle& h : stale) h.cancel();
  // Refill the exact same timestamps; the heap now holds stale and live
  // entries interleaved in push order.
  for (int i = 0; i < 100; ++i) {
    sim.schedule_after(Duration::nanoseconds(1'000 + i),
                       [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  // The drained heap refills cleanly.
  order.clear();
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::nanoseconds(1'000 + i),
                       [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// Clusters minutes and hours apart, pushed behind a near-future burst, must
// pop in the global (t, seq) order.
TEST(EventHeap, FarFutureClustersPopInGlobalOrder) {
  detail::EventHeap q;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 50; ++i) q.push(entry_at(i * 100, seq++));
  for (const std::int64_t base :
       {60'000'000'000LL, 3'600'000'000'000LL, 7'200'000'000'000LL}) {
    for (int i = 0; i < 50; ++i) q.push(entry_at(base + i * 1'000, seq++));
  }
  // Pushes arrived in globally ascending (t, seq) order, so the expected
  // pop order is simply seq order.
  for (std::uint64_t s = 0; s < seq; ++s) expected.push_back(s);
  std::vector<std::uint64_t> popped;
  while (!q.empty()) popped.push_back(seq_of(q.pop()));
  EXPECT_EQ(popped, expected);
}

// Ties at the clock interleaved with near and far pushes, drained a few at
// a time: popping must stay (t, seq)-ascending throughout.
TEST(EventHeap, InterleavedDrainAndPushKeepsTotalOrder) {
  detail::EventHeap q;
  std::uint64_t seq = 0;
  std::int64_t clock_ns = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> popped;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 8; ++i) q.push(entry_at(clock_ns + 500, seq++));
    q.push(entry_at(clock_ns + 20'000'000, seq++));
    q.push(entry_at(clock_ns + 500'000'000, seq++));
    for (int i = 0; i < 6 && !q.empty(); ++i) {
      const detail::QueueEntry e = q.pop();
      popped.emplace_back(e.t.ns(), seq_of(e));
      clock_ns = e.t.ns();
    }
  }
  while (!q.empty()) {
    const detail::QueueEntry e = q.pop();
    popped.emplace_back(e.t.ns(), seq_of(e));
  }
  ASSERT_EQ(popped.size(), static_cast<std::size_t>(seq));
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LT(popped[i - 1], popped[i])
        << "pop " << i << " out of (t, seq) order";
  }
}

// Runs `ops` randomized operations on an EventHeap and the oracle, then
// drains both; every pop and peek must match exactly. Pushes never precede
// the last popped time, as in the engine. `push_share(op)` is the
// probability, in percent, that operation `op` pushes; of the rest, one in
// four peeks. A slice of pushes are exact ties with the previous push, so
// seq must break them. Each seq is the push count times an odd constant,
// modulo the key's 2^40 seq range (a bijection there, so unique, but not
// increasing), so a tie may need to sift either way; each entry's slot is
// its push count modulo the slot range. Returns the largest pending count
// reached.
std::size_t run_differential(std::uint64_t seed, int ops,
                             const std::function<std::uint64_t(int)>& push_share) {
  detail::EventHeap heap;
  Oracle oracle;
  util::Xoshiro256 rng(seed);
  std::uint64_t seq = 0;
  std::int64_t clock_ns = 0;  // last popped time
  std::int64_t last_tie_ns = 0;
  std::size_t max_pending = 0;
  for (int op = 0; op < ops; ++op) {
    if (rng.below(100) < push_share(op) || oracle.empty()) {
      std::int64_t t_ns;
      switch (rng.below(8)) {
        case 7:  // far future
          t_ns = clock_ns + 1'000'000'000 +
                 static_cast<std::int64_t>(rng.below(1'000'000'000));
          break;
        case 6:  // mid range
          t_ns = clock_ns + 20'000'000 +
                 static_cast<std::int64_t>(rng.below(20'000'000));
          break;
        case 5:  // exact tie with a previous push: seq must break it
          t_ns = last_tie_ns;
          break;
        default:  // near future
          t_ns = clock_ns + static_cast<std::int64_t>(rng.below(1'000'000));
          break;
      }
      if (t_ns < clock_ns) t_ns = clock_ns;
      last_tie_ns = t_ns;
      const detail::QueueEntry e =
          entry_at(t_ns, (0x9e3779b97f4a7c15ULL * seq) & (detail::kSeqLimit - 1),
                   static_cast<std::uint32_t>(seq % detail::kSlotLimit));
      ++seq;
      heap.push(e);
      oracle.push(e);
    } else if (rng.below(4) != 0) {
      const detail::QueueEntry got = heap.pop();
      const detail::QueueEntry want = oracle.top();
      oracle.pop();
      EXPECT_EQ(got.t.ns(), want.t.ns()) << "op " << op;
      EXPECT_EQ(got.key, want.key) << "op " << op;
      if (got.key != want.key) return max_pending;
      clock_ns = got.t.ns();
      if (last_tie_ns < clock_ns) last_tie_ns = clock_ns;
    } else {
      const detail::QueueEntry* top = heap.peek();
      EXPECT_NE(top, nullptr) << "op " << op;
      if (top == nullptr) return max_pending;
      EXPECT_EQ(top->t.ns(), oracle.top().t.ns()) << "op " << op;
      EXPECT_EQ(top->key, oracle.top().key) << "op " << op;
    }
    EXPECT_EQ(heap.size(), oracle.size()) << "op " << op;
    if (heap.size() != oracle.size()) return max_pending;
    if (heap.size() > max_pending) max_pending = heap.size();
  }
  while (!oracle.empty()) {
    const detail::QueueEntry want = oracle.top();
    oracle.pop();
    const detail::QueueEntry got = heap.pop();
    EXPECT_EQ(got.t.ns(), want.t.ns());
    EXPECT_EQ(got.key, want.key);
    if (got.key != want.key) return max_pending;
  }
  EXPECT_TRUE(heap.empty());
  return max_pending;
}

// 10k mixed operations, half of them pushes: the pending set grows to
// about 1,200 entries.
TEST(EventHeap, DifferentialOracleOver10kMixedOps) {
  run_differential(20010416, 10'000, [](int) -> std::uint64_t { return 50; });
}

// 200k operations that first grow the pending set past 50,000 entries
// (eight heap levels) and then shrink it, so sifts through deep levels are
// checked against the oracle, ties included.
TEST(EventHeap, DifferentialOracleOver200kOpsPast50kPending) {
  const std::size_t max_pending = run_differential(
      20260418, 200'000,
      [](int op) -> std::uint64_t { return op < 100'000 ? 80 : 30; });
  EXPECT_GT(max_pending, 50'000u);
}

// An entry's key packs seq above the slot. Every field value up to its
// limit round-trips, keys order by seq whatever their slots, and the
// all-ones key that marks a free slot is never a packed key.
TEST(EventKey, PacksSeqAboveSlotUpToTheFieldLimits) {
  const std::uint64_t top_seq = detail::kSeqLimit - 1;
  const std::uint32_t top_slot = detail::kSlotLimit - 1;
  EXPECT_EQ(top_seq, (std::uint64_t{1} << 40) - 1);
  EXPECT_EQ(top_slot, (1u << 24) - 2);
  for (const std::uint64_t seq : {std::uint64_t{0}, std::uint64_t{1}, top_seq}) {
    for (const std::uint32_t slot : {0u, 1u, top_slot}) {
      const std::uint64_t key = detail::pack_key(seq, slot);
      EXPECT_EQ(detail::key_seq(key), seq);
      EXPECT_EQ(detail::key_slot(key), slot);
      EXPECT_NE(key, detail::kDeadKey);
    }
  }
  EXPECT_LT(detail::pack_key(5, top_slot), detail::pack_key(6, 0));
  EXPECT_EQ(detail::pack_key(top_seq, top_slot), detail::kDeadKey - 1);
}

// One past either field's limit throws instead of wrapping into another
// event's key (or the dead key), and the slab refuses before it changes.
TEST(EventKey, RefusesToWrapPastTheFieldLimits) {
  EXPECT_THROW(detail::pack_key(detail::kSeqLimit, 0), std::length_error);
  EXPECT_THROW(detail::pack_key(~std::uint64_t{0}, 0), std::length_error);
  EXPECT_THROW(detail::pack_key(0, detail::kSlotLimit), std::length_error);
  EXPECT_THROW(detail::pack_key(0, ~std::uint32_t{0}), std::length_error);

  detail::EventSlab slab;
  const std::uint64_t last = slab.acquire(detail::kSeqLimit - 1);
  EXPECT_EQ(detail::key_slot(last), 0u);
  EXPECT_TRUE(slab.live(last));
  slab.release(0);
  EXPECT_FALSE(slab.live(last));
  EXPECT_THROW(slab.acquire(detail::kSeqLimit), std::length_error);
  EXPECT_EQ(slab.free_head, 0u);
  EXPECT_EQ(slab.slots.size(), 1u);
  EXPECT_EQ(slab.slots[0].key, detail::kDeadKey);
}

// Tallies destructor runs of a move-only capture so the heap-fallback
// tests below can assert the callable is freed exactly once. Moved-from
// instances are disarmed and do not count.
class DtorTally {
 public:
  explicit DtorTally(int* tally) : tally_(tally) {}
  DtorTally(DtorTally&& other) noexcept
      : tally_(std::exchange(other.tally_, nullptr)) {}
  DtorTally(const DtorTally&) = delete;
  DtorTally& operator=(DtorTally&&) = delete;
  DtorTally& operator=(const DtorTally&) = delete;
  ~DtorTally() {
    if (tally_ != nullptr) ++*tally_;
  }

 private:
  int* tally_;
};

// An oversized capture takes EventFn's heap path while its queue entry
// moves through the event heap's sifts; pin down that the fallback still
// fires in (t, seq) order and the callable is destroyed exactly once.
TEST(EventFnHeapFallback, OversizedCaptureFiresInOrderAndFreesOnce) {
  std::array<std::uint64_t, 16> pad{};  // 128 bytes: over the 64-byte buffer
  pad.fill(7);
  int destroyed = 0;
  std::vector<int> order;
  {
    Simulator sim;
    sim.schedule_after(Duration::nanoseconds(100),
                       [&order] { order.push_back(0); });
    sim.schedule_after(
        Duration::nanoseconds(200),
        [&order, pad, tally = DtorTally(&destroyed)] {
          order.push_back(static_cast<int>(pad[0]) - 6);  // 1
        });
    sim.schedule_after(Duration::nanoseconds(300),
                       [&order] { order.push_back(2); });
    sim.run();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(destroyed, 1);
}

TEST(EventFnHeapFallback, OversizedCaptureReportsUsesHeap) {
  std::array<std::uint64_t, 16> pad{};
  int destroyed = 0;
  {
    EventFn small([] {});
    EXPECT_FALSE(small.uses_heap());
    EventFn large([pad, tally = DtorTally(&destroyed)] { (void)pad; });
    EXPECT_TRUE(large.uses_heap());
    // Moving a heap-backed EventFn transfers the pointer, never the value:
    // still exactly one live callable.
    EventFn moved = std::move(large);
    EXPECT_TRUE(moved.uses_heap());
    moved();
    EXPECT_EQ(destroyed, 0);  // invocation does not destroy
  }
  EXPECT_EQ(destroyed, 1);
}

// Cancelling a heap-backed event releases its slot immediately; the stale
// queue entry must not touch the already-destroyed callable when skipped.
TEST(EventFnHeapFallback, CancelledOversizedCaptureFreesOnce) {
  std::array<std::uint64_t, 16> pad{};
  int destroyed = 0;
  int fired = 0;
  Simulator sim;
  EventHandle h = sim.schedule_after(
      Duration::nanoseconds(100),
      [&fired, pad, tally = DtorTally(&destroyed)] {
        (void)pad;
        ++fired;
      });
  h.cancel();
  EXPECT_EQ(destroyed, 1);
  sim.run();  // drains the stale entry
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(destroyed, 1);
}

// A capture that is not trivially copyable must be moved by its move
// constructor, never byte-copied: each instance records its own address,
// and its destructor counts the run and whether it runs at another
// address than the one it was constructed or moved to.
struct Tally {
  int destroyed = 0;
  int byte_copied = 0;
};

class AddressTally {
 public:
  explicit AddressTally(Tally* tally) : tally_(tally), self_(this) {}
  AddressTally(AddressTally&& other) noexcept
      : tally_(std::exchange(other.tally_, nullptr)), self_(this) {}
  AddressTally(const AddressTally&) = delete;
  AddressTally& operator=(AddressTally&&) = delete;
  AddressTally& operator=(const AddressTally&) = delete;
  ~AddressTally() {
    if (tally_ == nullptr) return;
    ++tally_->destroyed;
    if (self_ != this) ++tally_->byte_copied;
  }

 private:
  Tally* tally_;
  const AddressTally* self_;
};

// An inline capture that is not trivially copyable is relocated by its
// move constructor and destroyed exactly once whether its event fires, is
// cancelled, or is still pending when the Simulator dies, with the slab
// growing (and relocating every pending slot) in between.
TEST(EventFnRelocation, NonTrivialInlineCaptureIsDestroyedExactlyOnce) {
  static_assert(!std::is_trivially_copyable_v<AddressTally>);
  Tally on_fire;
  Tally on_cancel;
  Tally at_teardown;
  int fired = 0;
  {
    Simulator sim;
    sim.schedule_after(Duration::nanoseconds(100),
                       [&fired, t = AddressTally(&on_fire)] { ++fired; });
    EventHandle cancelled = sim.schedule_after(
        Duration::nanoseconds(200),
        [&fired, t = AddressTally(&on_cancel)] { ++fired; });
    sim.schedule_after(Duration::nanoseconds(300),
                       [&fired, t = AddressTally(&at_teardown)] { ++fired; });
    EXPECT_FALSE(EventFn([t = AddressTally(nullptr)] {}).uses_heap());
    for (int i = 0; i < 100; ++i) {  // grows the slab past its first sizes
      sim.schedule_after(Duration::seconds(1), [] {});
    }
    cancelled.cancel();
    EXPECT_EQ(on_cancel.destroyed, 1);
    sim.run_until(TimePoint::origin() + Duration::nanoseconds(250));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(on_fire.destroyed, 1);
    EXPECT_EQ(at_teardown.destroyed, 0);
  }
  EXPECT_EQ(fired, 1);
  for (const Tally* t : {&on_fire, &on_cancel, &at_teardown}) {
    EXPECT_EQ(t->destroyed, 1);
    EXPECT_EQ(t->byte_copied, 0);
  }
}

// A trivially copyable capture is relocated by copying its bytes. One that
// grows the slab from inside its own firing still reads its captures
// afterwards, and the pending captures the growth relocated fire intact.
TEST(EventFnRelocation, TriviallyCopyableCaptureSurvivesSlabGrowthWhileFiring) {
  Simulator sim;
  std::vector<std::uint64_t> seen;
  const std::uint64_t a = 0x0123456789abcdefULL;
  const std::uint64_t b = 0xfedcba9876543210ULL;
  const auto grow = [&sim, &seen, a, b] {
    for (std::uint64_t i = 0; i < 300; ++i) {
      const auto later = [&seen, a, i] { seen.push_back(a + i); };
      static_assert(std::is_trivially_copyable_v<decltype(later)>);
      sim.schedule_after(Duration::nanoseconds(1 + static_cast<std::int64_t>(i)),
                         later);
    }
    seen.push_back(a ^ b);
  };
  static_assert(std::is_trivially_copyable_v<decltype(grow)>);
  sim.schedule_after(Duration::nanoseconds(1), grow);
  sim.run();
  ASSERT_EQ(seen.size(), 301u);
  EXPECT_EQ(seen[0], a ^ b);
  for (std::uint64_t i = 0; i < 300; ++i) EXPECT_EQ(seen[1 + i], a + i);
}

}  // namespace
}  // namespace retri::sim
