#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/sim/auditor.h"
#include "src/util/check.h"

namespace mimdraid {

namespace {

// Compaction trigger: sweep heap tombstones once they outnumber the live
// entries by this margin. The margin keeps tiny queues from compacting on
// every other cancel; the proportional part bounds the vector at
// 2*live + kTombstoneSlack entries.
constexpr size_t kTombstoneSlack = 64;

}  // namespace

uint32_t Simulator::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  MIMDRAID_CHECK_LT(pool_.size(), static_cast<size_t>(UINT32_MAX));
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void Simulator::RetireSlot(uint32_t slot) {
  Event& ev = pool_[slot];
  ev.fn.reset();
  ev.seq = 0;
  // Bumping the generation invalidates every EventId minted for this
  // incarnation; gen never revisits 0, so EventId() stays unambiguous.
  ++ev.gen;
  if (ev.gen == 0) {
    ev.gen = 1;
  }
  free_slots_.push_back(slot);
}

bool Simulator::DropDeadTop() {
  while (!heap_.empty()) {
    if (IsLive(heap_.front())) {
      return true;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_;
  }
  return false;
}

void Simulator::CompactIfStale() {
  if (dead_ <= heap_.size() / 2 || dead_ <= kTombstoneSlack) {
    return;
  }
  auto live_end = std::remove_if(
      heap_.begin(), heap_.end(),
      [this](const HeapEntry& e) { return !IsLive(e); });
  heap_.erase(live_end, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
}

EventId Simulator::ScheduleAt(SimTime at, EventFn fn) {
  if (auditor_ != nullptr) {
    auditor_->OnEventScheduled(now_, at);
  } else {
    MIMDRAID_CHECK_GE(at, now_);
  }
  const uint64_t seq = next_seq_++;
  const uint32_t slot = AllocSlot();
  Event& ev = pool_[slot];
  ev.seq = seq;
  ev.fn = std::move(fn);
  heap_.push_back(HeapEntry{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return IdFor(slot, ev.gen);
}

EventId Simulator::ScheduleAfter(SimDuration delay, EventFn fn) {
  MIMDRAID_CHECK_GE(delay, SimDuration(0));
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id.raw());
  const auto gen = static_cast<uint32_t>(id.raw() >> 32);
  // A fired, already-cancelled, or never-issued id no longer matches its
  // slot's generation (or names no slot at all): harmless no-op.
  if (slot >= pool_.size() || pool_[slot].gen != gen || pool_[slot].seq == 0) {
    return false;
  }
  // The heap entry stays behind as a tombstone (its seq no longer matches the
  // retired slot); the closure dies right now regardless.
  ++dead_;
  RetireSlot(slot);
  CompactIfStale();
  return true;
}

bool Simulator::Step() {
  if (!DropDeadTop()) {
    return false;
  }
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Detach before invoking: move the closure out and retire the slot, so the
  // callback can freely schedule new events into it and a self-Cancel from
  // inside the callback is a clean no-op.
  EventFn fn = std::move(pool_[top.slot].fn);
  RetireSlot(top.slot);
  if (auditor_ != nullptr) {
    auditor_->OnEventFired(now_, top.at);
  } else {
    MIMDRAID_CHECK_GE(top.at, now_);
  }
  now_ = top.at;
  ++events_fired_;
  fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  MIMDRAID_CHECK_GE(deadline, now_);
  // Tombstones are dropped before peeking, so a cancelled event exactly at
  // `deadline` can never drag now_ forward (the pinning test watches it).
  while (DropDeadTop() && heap_.front().at <= deadline) {
    Step();
  }
  now_ = deadline;
}

}  // namespace mimdraid
