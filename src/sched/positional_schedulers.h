// Rotational-position-sensitive schedulers: the SATF family and RLOOK.
//
// SATF (Shortest Access Time First, Jacobson & Wilkes / Seltzer et al.) picks
// the request with the smallest predicted positioning time (seek + rotation),
// looking at each request's primary copy only. The paper's extensions
// consider rotational replicas: RSATF minimizes predicted access time over
// every replica of every queued request (Section 2.4), and RLOOK keeps the
// LOOK sweep in the seek dimension but picks the rotationally closest replica
// of the chosen request. ASATF is RSATF with a starvation control: a request's
// cost is its predicted access time minus an age credit that grows while it
// waits, so a far request cannot be bypassed forever by a stream of nearby
// arrivals (SATF's classic weakness).
//
// All of them apply the predictor's slack: a candidate whose predicted
// rotational wait is below the slack is charged a full extra rotation, which
// is what keeps the on-target rate above 99% despite unobservable request
// overhead (Section 3.2).
#ifndef MIMDRAID_SRC_SCHED_POSITIONAL_SCHEDULERS_H_
#define MIMDRAID_SRC_SCHED_POSITIONAL_SCHEDULERS_H_

#include "src/sched/basic_schedulers.h"
#include "src/sched/scheduler.h"

namespace mimdraid {

// One pruned scan serves SATF, RSATF and ASATF; the kind decides which
// candidates of an entry are read and how much credit its age earns.
class SatfScheduler : public Scheduler {
 public:
  // Microseconds of predicted access time one microsecond of waiting is
  // worth under ASATF.
  static constexpr double kAsatfAgeWeight = 0.1;

  // `kind` is kSatf, kRsatf or kAsatf; `max_scan` caps the queue entries
  // examined per pick (0 = the whole queue).
  explicit SatfScheduler(SchedulerKind kind, size_t max_scan = 0);

  SchedulerPick Pick(std::span<const QueuedRequest> queue,
                     const ScheduleContext& ctx) override;
  std::string name() const override { return SchedulerKindName(kind_); }

 private:
  SchedulerKind kind_;
  size_t max_scan_;
  bool all_replicas_;  // false: the primary copy only (SATF)
  double age_weight_;  // 0 except under ASATF
};

class RlookScheduler : public LookScheduler {
 public:
  SchedulerPick Pick(std::span<const QueuedRequest> queue,
                     const ScheduleContext& ctx) override;
  std::string name() const override { return "RLOOK"; }
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_POSITIONAL_SCHEDULERS_H_
