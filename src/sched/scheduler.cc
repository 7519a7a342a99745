#include "src/sched/scheduler.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

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
  AuditedScheduler(std::unique_ptr<Scheduler> inner, InvariantAuditor* auditor,
                   std::function<const DiskLayout&()> layout)
      : inner_(std::move(inner)),
        auditor_(auditor),
        layout_(std::move(layout)) {
    MIMDRAID_CHECK(inner_ != nullptr);
    MIMDRAID_CHECK(auditor_ != nullptr);
    MIMDRAID_CHECK(layout_ != nullptr);
  }

  SchedulerPick Pick(std::span<const QueuedRequest> queue,
                     const ScheduleContext& ctx) override {
    // An entry whose positions were never refreshed would be ranked by
    // SectorPos{} (cylinder 0, and a NaN angle that silently disables
    // pruning), so catch a missing RefreshPositions before the pick.
    const auto remaps = static_cast<uint32_t>(layout_().num_remapped_sectors());
    const auto stale = static_cast<size_t>(std::ranges::count_if(
        queue, [remaps](const QueuedRequest& entry) {
          return entry.positions_stamp != remaps;
        }));
    const SchedulerPick pick = inner_->Pick(queue, ctx);
    std::vector<BlockAddr> candidates;
    if (pick.queue_index < queue.size()) {
      for (const QueueCandidate& c : queue[pick.queue_index].candidates) {
        candidates.push_back(c.lba);
      }
    }
    auditor_->OnSchedulerPick(inner_->name(), queue.size(), stale,
                              pick.queue_index, pick.lba, candidates,
                              pick.predicted_service_us);
    return pick;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  InvariantAuditor* auditor_;
  std::function<const DiskLayout&()> layout_;
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
    std::unique_ptr<Scheduler> inner, InvariantAuditor* auditor,
    std::function<const DiskLayout&()> layout) {
  return std::make_unique<AuditedScheduler>(std::move(inner), auditor,
                                            std::move(layout));
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
