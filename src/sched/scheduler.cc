#include "src/sched/scheduler.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "src/sched/basic_schedulers.h"
#include "src/sched/positional_schedulers.h"
#include "src/sim/auditor.h"
#include "src/util/check.h"

namespace mimdraid {

namespace {

// Keys of `queue`'s index that break it: each adjacent pair out of strict
// (cylinder, seq, candidate) order, plus each key without a candidate of the
// window at that cylinder and each such candidate without exactly one key.
// An unindexed queue must hold no keys.
size_t IndexFaults(const DriveQueue& queue) {
  const std::span<const DriveQueue::Key> keys = queue.keys();
  size_t faults = 0;
  for (size_t i = 1; i < keys.size(); ++i) {
    if (!(keys[i - 1] < keys[i])) {
      ++faults;
    }
  }
  std::vector<DriveQueue::Key> want;
  const std::span<const QueuedRequest> entries = queue.entries();
  const size_t window =
      queue.indexed() ? std::min(queue.window(), entries.size()) : 0;
  for (const QueuedRequest& entry : entries.first(window)) {
    for (uint32_t c = 0; c < entry.candidates.size(); ++c) {
      want.push_back(DriveQueue::KeyOf(entry, c));
    }
  }
  std::vector<DriveQueue::Key> have(keys.begin(), keys.end());
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  std::vector<DriveQueue::Key> unmatched;
  std::set_symmetric_difference(have.begin(), have.end(), want.begin(),
                                want.end(), std::back_inserter(unmatched));
  return faults + unmatched.size();
}

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

  SchedulerPick Pick(const DriveQueue& queue,
                     const ScheduleContext& ctx) override {
    // Positions derived from another layout or remap count would rank
    // replicas where they no longer lie, so catch a missing SyncTo (every
    // position shares the queue's one stamp) and a broken index before the
    // pick.
    const size_t stale = queue.SyncedTo(layout_()) ? 0 : queue.size();
    const size_t index_faults = IndexFaults(queue);
    const SchedulerPick pick = inner_->Pick(queue, ctx);
    const std::span<const QueuedRequest> entries = queue.entries();
    std::vector<BlockAddr> candidates;
    if (pick.queue_index < entries.size()) {
      for (const QueueCandidate& c : entries[pick.queue_index].candidates) {
        candidates.push_back(c.lba);
      }
    }
    auditor_->OnSchedulerPick(inner_->name(), entries.size(), stale,
                              index_faults, pick.queue_index, pick.lba,
                              candidates, pick.predicted_service_us);
    return pick;
  }

  size_t index_window() const override { return inner_->index_window(); }
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
