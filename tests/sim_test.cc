#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/simulator.h"

namespace mimdraid {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime(0));
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime(30), [&] { order.push_back(3); });
  sim.ScheduleAt(SimTime(10), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime(30));
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime(100), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator sim;
  SimTime fired_at(-1);
  sim.ScheduleAt(SimTime(50), [&] {
    sim.ScheduleAfter(SimDuration(25), [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, SimTime(75));
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceIsFalse) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(SimTime(10), [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(Simulator, CancelInvalidIdIsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(EventId()));
  EXPECT_FALSE(sim.Cancel(EventId(12345)));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.ScheduleAt(SimTime(1), [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.ScheduleAt(SimTime(10), [&] { fired.push_back(SimTime(10)); });
  sim.ScheduleAt(SimTime(20), [&] { fired.push_back(SimTime(20)); });
  sim.ScheduleAt(SimTime(30), [&] { fired.push_back(SimTime(30)); });
  sim.RunUntil(SimTime(20));
  EXPECT_EQ(fired, (std::vector<SimTime>{SimTime(10), SimTime(20)}));
  EXPECT_EQ(sim.Now(), SimTime(20));
  sim.Run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrains) {
  Simulator sim;
  sim.RunUntil(SimTime(500));
  EXPECT_EQ(sim.Now(), SimTime(500));
}

TEST(Simulator, RunUntilSkipsCancelledHead) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunUntil(SimTime(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.Now(), SimTime(100));
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    if (++count < 10) {
      sim.ScheduleAfter(SimDuration(5), chain);
    }
  };
  sim.ScheduleAt(SimTime(0), chain);
  sim.Run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.Now(), SimTime(45));
}

// Regression: Cancel used to accept the id of an already-fired event,
// permanently inserting it into the lazy-deletion set and making
// PendingEvents() (then computed as heap size minus cancelled size)
// underflow and wrap to ~2^64.
TEST(Simulator, CancelFiredEventIsNoOp) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(SimTime(10), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  // The stale cancel must not eat a later event either.
  bool fired = false;
  sim.ScheduleAfter(SimDuration(5), [&] { fired = true; });
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulator, PendingEventsExactAfterFiredIdCancels) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sim.ScheduleAt(SimTime(10 * (i + 1)), [] {}));
  }
  sim.RunUntil(SimTime(20));  // fires ids[0], ids[1]
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_FALSE(sim.Cancel(ids[0]));
  EXPECT_FALSE(sim.Cancel(ids[1]));
  EXPECT_EQ(sim.PendingEvents(), 2u);  // never underflows
  EXPECT_TRUE(sim.Cancel(ids[2]));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.events_fired(), 3u);
}

// An event cancelling itself from inside its own callback has already fired.
TEST(Simulator, CancelSelfInsideCallbackIsNoOp) {
  Simulator sim;
  EventId id;
  bool cancel_result = true;
  id = sim.ScheduleAt(SimTime(10), [&] { cancel_result = sim.Cancel(id); });
  sim.Run();
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulator, RunUntilDrainsCancelledEntriesExactlyOnce) {
  Simulator sim;
  // Interleave live and cancelled events around the deadline, then make sure
  // the shared pop-next-live helper leaves the accounting exact.
  const EventId a = sim.ScheduleAt(SimTime(10), [] {});
  const EventId b = sim.ScheduleAt(SimTime(20), [] {});
  const EventId c = sim.ScheduleAt(SimTime(30), [] {});
  sim.ScheduleAt(SimTime(40), [] {});
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_TRUE(sim.Cancel(c));
  sim.RunUntil(SimTime(30));
  EXPECT_EQ(sim.events_fired(), 1u);  // only b
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_FALSE(sim.Cancel(b));
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 2u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulator, PendingEventsAccounting) {
  Simulator sim;
  const EventId a = sim.ScheduleAt(SimTime(10), [] {});
  sim.ScheduleAt(SimTime(20), [] {});
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_TRUE(sim.Cancel(a));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.events_fired(), 1u);
}

// Regression: Cancel used to only mark the event dead in a lazy-deletion
// set, keeping the callback closure (and everything it captured) alive until
// the entry was eventually popped — which for a far-future watchdog timer
// could be the whole run. Cancel must release the closure immediately.
TEST(Simulator, CancelReleasesCallbackEagerly) {
  Simulator sim;
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> watch = payload;
  const EventId id =
      sim.ScheduleAt(SimTime(1'000'000'000), [payload] { (void)*payload; });
  payload.reset();
  EXPECT_FALSE(watch.expired());  // the pending event holds the last ref
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_TRUE(watch.expired());  // released at Cancel, not at pop
}

// Regression: a schedule-far/cancel churn loop (the watchdog-per-op pattern)
// used to grow the heap and the lazy-deletion set without bound within a
// quiet period. With slot recycling and tombstone compaction both the pool
// and the heap stay bounded by the live event count, not the churn count.
TEST(Simulator, CancelChurnBoundsQueue) {
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    // Far future: the tombstone sinks below every later insert and never
    // surfaces at the top, the worst case for tombstone accumulation.
    const EventId id =
        sim.ScheduleAfter(SimDuration(500'000'000 + i), [] {});
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_LE(sim.EventSlotsForTest(), 16u);
  EXPECT_LE(sim.HeapEntriesForTest(), 256u);
  // Near-future churn leaves tombstones in the same heap.
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = sim.ScheduleAfter(SimDuration(1 + (i % 100)), [] {});
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_LE(sim.EventSlotsForTest(), 16u);
  EXPECT_LE(sim.HeapEntriesForTest(), 256u);
}

// A cancelled event sitting exactly at the deadline must not drag the clock
// past it (RunUntil contracts now() == deadline after the call), and a
// cancelled event beyond the deadline must not stop the clock short.
TEST(Simulator, RunUntilCancelledEventExactlyAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(SimTime(10), [&] { ++fired; });
  const EventId at_deadline = sim.ScheduleAt(SimTime(20), [&] { ++fired; });
  const EventId beyond = sim.ScheduleAt(SimTime(21), [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(at_deadline));
  EXPECT_TRUE(sim.Cancel(beyond));
  sim.RunUntil(SimTime(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime(20));
  // The clock parked at the deadline; scheduling at it again is legal.
  sim.ScheduleAt(SimTime(20), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), SimTime(20));
}

}  // namespace
}  // namespace mimdraid
