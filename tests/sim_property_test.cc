// Property test for the event engine: a reference model (a plain binary
// heap with lazy deletion and a separate live set) must agree with the
// engine's pooled, tombstoned heap on the exact fire order — time, FIFO
// tiebreak, and clock — over randomized schedule/cancel/reschedule churn,
// including far-future events and deadlines that park the clock between
// events. PendingEvents() is checked exactly throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

// Reference semantics: (at, seq) total order with lazy deletion.
class ModelQueue {
 public:
  // Returns the model's id for the scheduled event.
  uint64_t Schedule(int64_t at) {
    const uint64_t id = next_id_++;
    heap_.push(Entry{at, id});
    live_.insert(id);
    return id;
  }

  bool Cancel(uint64_t id) { return live_.erase(id) > 0; }

  size_t Pending() const { return live_.size(); }

  // Pops the next live entry; returns false if none.
  bool Pop(int64_t* at, uint64_t* id) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (live_.erase(top.id) > 0) {
        *at = top.at;
        *id = top.id;
        return true;
      }
    }
    return false;
  }

  // Earliest live fire time, or false if empty (lazy entries skipped without
  // popping live state).
  bool PeekTime(int64_t* at) {
    while (!heap_.empty() && live_.count(heap_.top().id) == 0) {
      heap_.pop();
    }
    if (heap_.empty()) {
      return false;
    }
    *at = heap_.top().at;
    return true;
  }

 private:
  struct Entry {
    int64_t at;
    uint64_t id;  // schedule order == engine seq order
    bool operator>(const Entry& o) const {
      return at != o.at ? at > o.at : id > o.id;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_set<uint64_t> live_;
  uint64_t next_id_ = 1;
};

TEST(SimulatorProperty, MatchesReferenceHeapOverRandomChurn) {
  constexpr int kEvents = 10'000;
  Rng rng(20260808);

  Simulator sim;
  ModelQueue model;
  std::vector<uint64_t> engine_fired;  // model ids, in engine fire order
  std::vector<uint64_t> model_fired;

  // Live pairs (model id -> engine id), flat for random cancel picks.
  struct Live {
    uint64_t model_id;
    EventId engine_id;
  };
  std::vector<Live> live;
  std::unordered_set<uint64_t> gone;  // fired model ids
  size_t cleaned = 0;                 // prefix of model_fired already in gone

  int scheduled = 0;
  while (scheduled < kEvents || model.Pending() > 0) {
    const double roll = rng.UniformDouble();
    if (scheduled < kEvents && roll < 0.45) {
      // Schedule: mostly near-future, sometimes far future (long timers),
      // sometimes exactly at now.
      int64_t delta;
      const double kind = rng.UniformDouble();
      if (kind < 0.70) {
        delta = static_cast<int64_t>(rng.UniformU64(5'000));
      } else if (kind < 0.90) {
        delta = static_cast<int64_t>(rng.UniformU64(200'000));
      } else {
        delta = static_cast<int64_t>(rng.UniformU64(50'000'000));
      }
      const int64_t at = sim.Now().us() + delta;
      const uint64_t model_id = model.Schedule(at);
      const EventId engine_id = sim.ScheduleAt(
          SimTime(at), [&engine_fired, model_id] {
            engine_fired.push_back(model_id);
          });
      live.push_back(Live{model_id, engine_id});
      ++scheduled;
    } else if (roll < 0.60 && !live.empty()) {
      // Cancel a random live event (in both). A reschedule is a cancel
      // followed by a later schedule, so this also covers reschedule churn.
      const size_t pick = rng.UniformU64(live.size());
      const Live victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      EXPECT_TRUE(model.Cancel(victim.model_id));
      EXPECT_TRUE(sim.Cancel(victim.engine_id));
    } else if (roll < 0.80) {
      // Step both once.
      int64_t at;
      uint64_t id;
      if (model.Pop(&at, &id)) {
        model_fired.push_back(id);
        ASSERT_TRUE(sim.Step());
        ASSERT_EQ(sim.Now().us(), at);
      } else {
        ASSERT_FALSE(sim.Step());
      }
    } else {
      // RunUntil a deadline near the next live event (just short of it, at
      // it, or beyond a few of them) — the parked-clock cases.
      int64_t next;
      int64_t deadline = sim.Now().us();
      if (model.PeekTime(&next)) {
        deadline = next + rng.UniformInt(-2, 5'000);
        deadline = std::max(deadline, sim.Now().us());
      } else {
        deadline += static_cast<int64_t>(rng.UniformU64(10'000));
      }
      int64_t at;
      uint64_t id;
      while (model.PeekTime(&at) && at <= deadline) {
        ASSERT_TRUE(model.Pop(&at, &id));
        model_fired.push_back(id);
      }
      sim.RunUntil(SimTime(deadline));
      ASSERT_EQ(sim.Now().us(), deadline);
    }
    // After every operation the live accounting must agree exactly.
    ASSERT_EQ(sim.PendingEvents(), model.Pending());
    ASSERT_EQ(engine_fired.size(), model_fired.size());
    // Drop newly fired events from the live list (both sides fired them).
    if (model_fired.size() > cleaned) {
      gone.insert(model_fired.begin() + static_cast<ptrdiff_t>(cleaned),
                  model_fired.end());
      cleaned = model_fired.size();
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&gone](const Live& l) {
                                  return gone.count(l.model_id) > 0;
                                }),
                 live.end());
    }
  }

  // Identical fire order, element for element.
  ASSERT_EQ(engine_fired, model_fired);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

}  // namespace
}  // namespace mimdraid
