#include "src/sched/scheduler.h"

#include <utility>

#include "src/sched/basic_schedulers.h"
#include "src/sched/positional_schedulers.h"
#include "src/sim/auditor.h"
#include "src/util/check.h"

namespace mimdraid {

namespace {

// Decorator that reports every pick to the invariant auditor. Scan state
// lives in the wrapped scheduler, so wrapping changes no scheduling decision.
class AuditedScheduler final : public Scheduler {
 public:
  AuditedScheduler(std::unique_ptr<Scheduler> inner, InvariantAuditor* auditor)
      : inner_(std::move(inner)), auditor_(auditor) {
    MIMDRAID_CHECK(inner_ != nullptr);
    MIMDRAID_CHECK(auditor_ != nullptr);
  }

  SchedulerPick Pick(const std::vector<QueuedRequest>& queue,
                     const ScheduleContext& ctx) override {
    const SchedulerPick pick = inner_->Pick(queue, ctx);
    const bool index_ok = pick.queue_index < queue.size();
    auditor_->OnSchedulerPick(
        inner_->name(), queue.size(), pick.queue_index, pick.lba,
        index_ok ? queue[pick.queue_index].candidate_lbas
                 : std::vector<BlockAddr>{},
        pick.predicted_service_us);
    return pick;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  InvariantAuditor* auditor_;
};

}  // namespace

std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind, size_t max_scan) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case SchedulerKind::kSstf:
      return std::make_unique<SstfScheduler>();
    case SchedulerKind::kLook:
      return std::make_unique<LookScheduler>();
    case SchedulerKind::kClook:
      return std::make_unique<ClookScheduler>();
    case SchedulerKind::kSatf:
    case SchedulerKind::kAsatf:
    case SchedulerKind::kRsatf:
      return std::make_unique<SatfScheduler>(kind, max_scan);
    case SchedulerKind::kRlook:
      return std::make_unique<RlookScheduler>();
  }
  MIMDRAID_CHECK(false);
}

std::unique_ptr<Scheduler> MakeAuditedScheduler(
    std::unique_ptr<Scheduler> inner, InvariantAuditor* auditor) {
  return std::make_unique<AuditedScheduler>(std::move(inner), auditor);
}

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return "FCFS";
    case SchedulerKind::kSstf:
      return "SSTF";
    case SchedulerKind::kLook:
      return "LOOK";
    case SchedulerKind::kClook:
      return "CLOOK";
    case SchedulerKind::kSatf:
      return "SATF";
    case SchedulerKind::kAsatf:
      return "ASATF";
    case SchedulerKind::kRlook:
      return "RLOOK";
    case SchedulerKind::kRsatf:
      return "RSATF";
  }
  MIMDRAID_CHECK(false);
}

}  // namespace mimdraid
