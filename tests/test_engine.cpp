#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace retri::sim {
namespace {

TEST(Duration, ConstructorsAndConversions) {
  EXPECT_EQ(Duration::seconds(2).ns(), 2'000'000'000);
  EXPECT_EQ(Duration::milliseconds(3).ns(), 3'000'000);
  EXPECT_EQ(Duration::microseconds(4).ns(), 4'000);
  EXPECT_EQ(Duration::nanoseconds(5).ns(), 5);
  EXPECT_DOUBLE_EQ(Duration::seconds(2).to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::milliseconds(1500).to_seconds(), 1.5);
  EXPECT_EQ(Duration::from_seconds(0.5).ns(), 500'000'000);
  EXPECT_EQ(Duration::from_seconds(1e-9).ns(), 1);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::seconds(1);
  const Duration b = Duration::milliseconds(500);
  EXPECT_EQ((a + b).ns(), 1'500'000'000);
  EXPECT_EQ((a - b).ns(), 500'000'000);
  EXPECT_EQ((b * 3).ns(), 1'500'000'000);
  EXPECT_EQ((a / 4).ns(), 250'000'000);
  EXPECT_LT(b, a);
}

TEST(TimePoint, ArithmeticWithDurations) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::seconds(5);
  EXPECT_EQ((t1 - t0).ns(), 5'000'000'000);
  EXPECT_EQ((t1 - Duration::seconds(2)).ns(), 3'000'000'000);
  EXPECT_GT(t1, t0);
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::seconds(3), [&] { order.push_back(3); });
  sim.schedule_after(Duration::seconds(1), [&] { order.push_back(1); });
  sim.schedule_after(Duration::seconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns(), Duration::seconds(3).ns());
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) sim.schedule_after(Duration::seconds(1), chain);
  };
  sim.schedule_after(Duration::seconds(1), chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now().ns(), Duration::seconds(5).ns());
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  sim.schedule_after(Duration::seconds(10), [&] { ++fired; });
  const auto n = sim.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), Duration::seconds(5).ns());
  // The later event is still queued and fires on the next run.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::seconds(5), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Simulator, MaxEventsBoundsRun) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::seconds(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  sim.schedule_after(Duration::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsFiredCounter) {
  Simulator sim;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_after(Duration::seconds(1), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_fired(), 3u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  TimePoint fired_at;
  sim.schedule_at(TimePoint::origin() + Duration::seconds(7),
                  [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at.ns(), Duration::seconds(7).ns());
}

// The slab recycles event slots; a stale handle whose slot was reissued to
// a newer event must not cancel (or report pending for) the new occupant.
TEST(EventHandleGenerations, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  int first = 0;
  int second = 0;
  EventHandle stale =
      sim.schedule_after(Duration::seconds(1), [&] { ++first; });
  sim.run();  // slot is released back to the free list
  EXPECT_EQ(first, 1);

  // The free list is LIFO, so this reuses the slot `stale` points at.
  EventHandle fresh =
      sim.schedule_after(Duration::seconds(1), [&] { ++second; });
  EXPECT_FALSE(stale.pending());
  stale.cancel();  // key mismatch: must be a no-op
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(EventHandleGenerations, CancelledSlotReuseIsAlsoGenerationChecked) {
  Simulator sim;
  int fired = 0;
  EventHandle first = sim.schedule_after(Duration::seconds(1), [] {});
  first.cancel();
  EventHandle second =
      sim.schedule_after(Duration::seconds(2), [&] { ++fired; });
  first.cancel();  // stale again; must not touch `second`
  EXPECT_TRUE(second.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
}

// A handle stays inert however many times its slot is reissued: its key
// names one event, and each later occupant of the slot has its own seq.
TEST(EventHandleGenerations, HandleStaysInertAcrossRepeatedSlotReuse) {
  Simulator sim;
  int fired = 0;
  EventHandle stale = sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  stale.cancel();
  // One event pending at a time keeps the slab at one slot, so every
  // event below reuses the slot `stale` points at; they are released
  // alternately by firing and by cancelling.
  for (int reuse = 0; reuse < 4; ++reuse) {
    EventHandle fresh =
        sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
    EXPECT_FALSE(stale.pending()) << "reuse " << reuse;
    stale.cancel();
    EXPECT_TRUE(fresh.pending()) << "reuse " << reuse;
    if (reuse % 2 == 0) {
      sim.run();
    } else {
      fresh.cancel();
    }
    EXPECT_FALSE(fresh.pending());
  }
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(stale.pending());
}

TEST(EventHandleGenerations, HandleOutlivingSimulatorIsInert) {
  EventHandle h;
  EventHandle copied;
  EventHandle moved_from;
  EventHandle moved;
  {
    Simulator sim;
    h = sim.schedule_after(Duration::seconds(1), [] {});
    EXPECT_TRUE(h.pending());
    copied = h;
    moved_from = sim.schedule_after(Duration::seconds(2), [] {});
    moved = std::move(moved_from);
    EXPECT_TRUE(copied.pending());
    EXPECT_TRUE(moved.pending());
    EXPECT_FALSE(moved_from.pending());  // NOLINT(bugprone-use-after-move)
  }
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(copied.pending());
  EXPECT_FALSE(moved.pending());
  h.cancel();  // slab is gone; must not crash
  copied.cancel();
  moved.cancel();
  // Copies and moves made after the simulator died are just as inert.
  EventHandle late_copy = copied;
  const EventHandle late_move = std::move(moved);
  EXPECT_FALSE(late_copy.pending());
  EXPECT_FALSE(late_move.pending());
  late_copy.cancel();
  copied = late_move;
  EXPECT_FALSE(copied.pending());
}

// A dying Simulator destroys every pending callable, even while handles to
// them live on; a callable that cancels another event as it is destroyed
// finds it inert rather than half-destroyed.
TEST(EventHandleGenerations, PendingCallablesDieWithTheSimulator) {
  struct CancelsOnDestruction {
    EventHandle target;
    explicit CancelsOnDestruction(EventHandle h) : target(std::move(h)) {}
    CancelsOnDestruction(CancelsOnDestruction&&) noexcept = default;
    ~CancelsOnDestruction() { target.cancel(); }
    void operator()() const {}
  };
  const auto token = std::make_shared<int>(0);
  EventHandle held;
  {
    Simulator sim;
    held = sim.schedule_after(Duration::seconds(1), [token] {});
    const EventHandle target = sim.schedule_after(Duration::seconds(3), [] {});
    sim.schedule_after(Duration::seconds(2), CancelsOnDestruction{target});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(held.pending());
}

TEST(EventHandleGenerations, CancelOwnHandleFromCallbackIsSafe) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule_after(Duration::seconds(1), [&] {
    ++fired;
    h.cancel();  // slot already released before invocation; no-op
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventFnStorage, LargeCallablesFallBackToHeap) {
  Simulator sim;
  // 128 bytes of captured state exceeds the 64-byte inline buffer.
  std::array<std::uint64_t, 16> big{};
  big.fill(41);
  std::uint64_t sum = 0;
  sim.schedule_after(Duration::seconds(1), [big, &sum] {
    for (const auto v : big) sum += v + 1;
  });
  sim.run();
  EXPECT_EQ(sum, 16u * 42u);
}

TEST(EventFnStorage, MoveOnlyCapturesWork) {
  Simulator sim;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  sim.schedule_after(Duration::seconds(1),
                     [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 7);
}

// Callbacks scheduling further events may grow the slab mid-fire; the
// engine must tolerate slot storage moving under a firing event.
TEST(EventFnStorage, CallbackGrowingSlabWhileFiringIsSafe) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::seconds(1), [&] {
    for (int i = 0; i < 256; ++i) {
      sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
    }
  });
  sim.run();
  EXPECT_EQ(fired, 256);
}

}  // namespace
}  // namespace retri::sim
