// Non-positional baseline schedulers: FCFS, SSTF, LOOK, C-LOOK.
#ifndef MIMDRAID_SRC_SCHED_BASIC_SCHEDULERS_H_
#define MIMDRAID_SRC_SCHED_BASIC_SCHEDULERS_H_

#include <span>

#include "src/sched/scheduler.h"

namespace mimdraid {

// First-come first-served: dispatch in arrival order.
class FcfsScheduler : public Scheduler {
 public:
  SchedulerPick Pick(const DriveQueue& queue,
                     const ScheduleContext& ctx) override;
  std::string name() const override { return "FCFS"; }
};

// Shortest seek time first: minimize cylinder distance from the current arm
// position; considers all replicas of an entry.
class SstfScheduler : public Scheduler {
 public:
  SchedulerPick Pick(const DriveQueue& queue,
                     const ScheduleContext& ctx) override;
  std::string name() const override { return "SSTF"; }
};

// Elevator: sweep the arm from one end of the (used) cylinder range to the
// other, servicing requests along the way; reverse when the current direction
// is exhausted.
class LookScheduler : public Scheduler {
 public:
  SchedulerPick Pick(const DriveQueue& queue,
                     const ScheduleContext& ctx) override;
  std::string name() const override { return "LOOK"; }

 protected:
  // Picks the queue index by the LOOK sweep over primary-candidate cylinders.
  size_t PickIndex(std::span<const QueuedRequest> queue);

 private:
  int direction_ = +1;
  uint32_t current_cylinder_ = 0;
};

// Circular LOOK: sweep in one direction only, wrapping to the lowest
// outstanding cylinder at the end.
class ClookScheduler : public Scheduler {
 public:
  SchedulerPick Pick(const DriveQueue& queue,
                     const ScheduleContext& ctx) override;
  std::string name() const override { return "CLOOK"; }

 private:
  uint32_t current_cylinder_ = 0;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_BASIC_SCHEDULERS_H_
