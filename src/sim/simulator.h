// Discrete-event simulation core.
//
// The entire MimdRAID stack runs on simulated time: disks, schedulers, the
// array controller, and workload drivers all schedule callbacks on a single
// Simulator instance. This mirrors the paper's "integrated simulator"
// (Section 3.1), whose motivation was to replace real I/O time and idle time
// with simulated time.
//
// Events are totally ordered by (timestamp, insertion sequence), so two
// events at the same instant fire in scheduling order and runs are
// deterministic.
//
// Engine layout. Events live in a pooled slab of generation-tagged slots and
// are ordered by one binary min-heap of (at, seq, slot) entries. The steady
// path — schedule, fire — is a pool-slot reuse plus a push_heap/pop_heap: no
// allocation (the callback lives in the event's inline buffer, see
// src/util/inline_fn.h). Cancel destroys the callback (and everything the
// closure kept alive) on the spot and leaves a 24-byte tombstone in the heap,
// which compaction sweeps once tombstones outnumber live entries. Measured
// queues are small (no bench holds more than a few dozen pending events), so
// a single heap is all the index the engine needs.
#ifndef MIMDRAID_SRC_SIM_SIMULATOR_H_
#define MIMDRAID_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/inline_fn.h"
#include "src/util/time.h"

namespace mimdraid {

class InvariantAuditor;

class Simulator {
 public:
  // Inline capacity of an event callback: room for a std::function
  // completion plus a few scalars of context; bigger captures still work via
  // InlineFn's heap fallback.
  using EventFn = InlineFn<void(), 120>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute simulated time `at` (>= Now()).
  // Returns an id usable with Cancel().
  EventId ScheduleAt(SimTime at, EventFn fn);

  // Schedules `fn` to run `delay` from now.
  EventId ScheduleAfter(SimDuration delay, EventFn fn);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a harmless no-op; returns whether the event was still pending
  // (false for fired, cancelled, or never-issued ids). The result is
  // [[nodiscard]]: the PR 2 livelock class started with a caller assuming a
  // Cancel it never checked had won the race against the event firing.
  // Cancellation releases the callback eagerly — the closure and everything
  // it captures are destroyed before Cancel returns, never parked until the
  // event's deadline would have come up.
  [[nodiscard]] bool Cancel(EventId id);

  // Runs events until the queue is empty.
  void Run();

  // Runs events with timestamp <= deadline, then sets Now() to deadline
  // (if the queue drained earlier) so subsequent scheduling is relative to it.
  void RunUntil(SimTime deadline);

  // Fires the single earliest event. Returns false if the queue is empty.
  bool Step();

  // Number of pending (non-cancelled, non-fired) events.
  size_t PendingEvents() const { return heap_.size() - dead_; }

  // Total events fired since construction (for tests / sanity checks).
  uint64_t events_fired() const { return events_fired_; }

  // Attaches a runtime invariant auditor (src/sim/auditor.h); nullptr
  // detaches. Borrowed, must outlive the simulator. With an auditor attached,
  // the auditor owns event-time monotonicity enforcement (its default
  // handler aborts exactly like the built-in checks it replaces).
  void set_auditor(InvariantAuditor* auditor) { auditor_ = auditor; }
  InvariantAuditor* auditor() const { return auditor_; }

  // Test-only backdoor: warps the clock without firing events, so tests can
  // seed an event-ordering violation and assert the auditor catches it.
  void CorruptClockForTest(SimTime t) { now_ = t; }

  // --- Test-only introspection of engine storage (regression coverage for
  // the cancel-churn retention class; see sim_test.cc). ---
  // Event slots ever allocated (live + free-listed). Bounded by the peak
  // number of simultaneously pending events, not by throughput.
  size_t EventSlotsForTest() const { return pool_.size(); }
  // Heap entries, live + tombstones. Compaction keeps this within a small
  // multiple of the live count.
  size_t HeapEntriesForTest() const { return heap_.size(); }

 private:
  struct Event {
    uint64_t seq = 0;  // the pending incarnation's seq; 0 marks a free slot
    uint32_t gen = 1;  // id generation; bumped every time the slot retires
    EventFn fn;
  };

  // Heap entry. (at, seq) orders it: seq is a global tie-break, so same-time
  // events fire FIFO. `slot`+`seq` identify the pool event, and a mismatch
  // (slot retired or reused) marks a tombstone.
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  static EventId IdFor(uint32_t slot, uint32_t gen) {
    return EventId((static_cast<uint64_t>(gen) << 32) | slot);
  }

  bool IsLive(const HeapEntry& e) const { return pool_[e.slot].seq == e.seq; }
  uint32_t AllocSlot();
  void RetireSlot(uint32_t slot);
  // Pops tombstones off the top; returns false when no live event is left.
  bool DropDeadTop();
  void CompactIfStale();

  SimTime now_;
  InvariantAuditor* auditor_ = nullptr;
  uint64_t next_seq_ = 1;
  uint64_t events_fired_ = 0;

  std::vector<Event> pool_;
  std::vector<uint32_t> free_slots_;

  // Min-heap over (at, seq) via std::push_heap; `dead_` counts tombstones.
  std::vector<HeapEntry> heap_;
  size_t dead_ = 0;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SIM_SIMULATOR_H_
