// Local disk scheduler interface (the prototype's Scheduling Layer).
//
// A scheduler ranks the entries of one drive's queue (DriveQueue) and picks
// the next request to dispatch, choosing a concrete replica for
// multi-candidate entries. Position-sensitive policies consult the drive's
// AccessPredictor. The LOOK family scans the entries in order; the SATF
// family walks the queue's cylinder index outward from the head when the
// queue keeps one, and scans its window of entries when it does not.
#ifndef MIMDRAID_SRC_SCHED_SCHEDULER_H_
#define MIMDRAID_SRC_SCHED_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/disk/access_predictor.h"
#include "src/sched/drive_queue.h"

namespace mimdraid {

class InvariantAuditor;
class TraceCollector;

struct ScheduleContext {
  SimTime now;
  AccessPredictor* predictor = nullptr;  // required by SATF-class policies
  // Optional observability: when set, SATF-class policies report how many
  // candidates they fully predicted per pick and how many index keys they
  // visited (cost of a scheduling decision).
  TraceCollector* collector = nullptr;
  SlotId disk;  // slot label for collector reports
};

struct SchedulerPick {
  size_t queue_index = 0;             // position in queue.entries()
  BlockAddr lba;                      // chosen replica
  double predicted_service_us = 0.0;  // 0 for non-positional policies
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Picks the next request from `queue` (non-empty), which must be synced
  // to the drive's layout (DriveQueue::SyncTo). Implementations may keep
  // scan state (LOOK direction); they must be told about the pick they made,
  // which happens implicitly: returning a pick commits it.
  virtual SchedulerPick Pick(const DriveQueue& queue,
                             const ScheduleContext& ctx) = 0;

  // The leading entries, in scan order, that this scheduler ranks through
  // the queue's cylinder index (DriveQueue::kWholeQueue: all of them); 0
  // when it reads entries() only. A queue for this scheduler is built as
  // DriveQueue(index_window()).
  virtual size_t index_window() const { return 0; }

  virtual std::string name() const = 0;
};

enum class SchedulerKind {
  kFcfs,
  kSstf,
  kLook,
  kClook,
  kSatf,
  kAsatf,
  kRlook,
  kRsatf,
};

// `max_scan` confines SATF-class picks to the first `max_scan` entries in
// scan order (0 = the whole queue); LOOK-class policies always scan the
// whole queue (a cylinder comparison is cheap).
std::unique_ptr<Scheduler> MakeScheduler(SchedulerKind kind,
                                         size_t max_scan = 0);

// Wraps `inner` so every pick is validated by `auditor` (the queue synced to
// the drive's layout; while it keeps a cylinder index, the index sorted with
// exactly one key per candidate of its window; index in range, chosen LBA
// among the picked entry's candidates, non-negative prediction). `layout`
// returns the layout of the drive the queue belongs to at pick time (a spare
// promotion swaps it). Used by the runtime invariant-audit layer; `auditor`
// must not be null and must outlive the returned scheduler.
std::unique_ptr<Scheduler> MakeAuditedScheduler(
    std::unique_ptr<Scheduler> inner, InvariantAuditor* auditor,
    std::function<const DiskLayout&()> layout);

const char* SchedulerKindName(SchedulerKind kind);

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_SCHEDULER_H_
