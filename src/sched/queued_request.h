// A request queued at one physical drive.
//
// The Disk Configuration Layer translates a logical I/O into per-drive
// entries. On an SR-Array disk a read carries the LBAs of all Dr rotational
// replicas as candidates; the replica-aware schedulers (RLOOK, RSATF) choose
// among them at dispatch time. Plain schedulers use the first candidate.
//
// Each candidate caches where its LBA lies (cylinder and rotational slot), so
// the schedulers rank a queue without re-deriving disk geometry on every
// pick. RefreshPositions fills the cache; the cache is stamped with the
// layout's remap count, because a latent-bad-sector remap relocates a sector
// to zone spare space, possibly on another cylinder, while entries holding
// it wait. The replicas of one block normally share a cylinder, but a remap
// breaks that too, so schedulers bound costs per replica, never per entry.
#ifndef MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_
#define MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/disk/layout.h"
#include "src/disk/sim_disk.h"
#include "src/util/time.h"

namespace mimdraid {

// One replica a queued entry may be served from.
struct QueueCandidate {
  explicit QueueCandidate(BlockAddr at) : lba(at) {}

  BlockAddr lba;
  // Where `lba` lies; valid while the entry's `positions_stamp` is current.
  SectorPos pos;
};

struct QueuedRequest {
  // No remap count equals it, so a new entry's positions count as stale.
  static constexpr uint32_t kUnstamped = UINT32_MAX;

  // Stamped by DriveSet::EnqueueFg/EnqueueDelayed, as is `arrival_us`.
  uint64_t id = 0;
  DiskOp op = DiskOp::kRead;
  uint32_t sectors = 0;
  std::vector<QueueCandidate> candidates;
  SimTime arrival_us;
  // Background replica propagation (serviced only when the foreground queue
  // is empty; see Section 3.4).
  bool delayed = false;
  // Array-layer correlation handle: the mirror's fragment key, which starts
  // at 1. 0 on propagations and on maintenance entries (rebuild copies, scrub
  // and calibration reads), which the mirror routes by id through its hook
  // table.
  uint64_t tag = 0;
  // Recovery attempts already spent on the work this entry carries; a retry
  // enqueues a fresh entry (fresh id, so queue conservation holds) with
  // attempts + 1.
  uint32_t attempts = 0;
  // DiskLayout::num_remapped_sectors() when `candidates[].pos` were computed.
  uint32_t positions_stamp = kUnstamped;

  BlockAddr primary() const { return candidates.front().lba; }
};

// Brings every entry's cached candidate positions up to date with `layout`:
// an entry stamped at another remap count than the layout's current one is
// recomputed, the rest are left alone. The count only grows, so a matching
// stamp means no sector has moved since. This is the only code that writes
// positions; call it on a queue before handing it to a Scheduler (an audited
// scheduler, MakeAuditedScheduler, reports a pick over a queue that missed
// it).
inline void RefreshPositions(std::span<QueuedRequest> queue,
                             const DiskLayout& layout) {
  const auto remaps = static_cast<uint32_t>(layout.num_remapped_sectors());
  for (QueuedRequest& entry : queue) {
    if (entry.positions_stamp == remaps) {
      continue;
    }
    for (QueueCandidate& c : entry.candidates) {
      c.pos = layout.PositionOf(c.lba.value());
    }
    entry.positions_stamp = remaps;
  }
}

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_
