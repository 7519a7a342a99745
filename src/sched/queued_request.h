// A request queued at one physical drive.
//
// The Disk Configuration Layer translates a logical I/O into per-drive
// entries. On an SR-Array disk a read carries the LBAs of all Dr rotational
// replicas as candidates; the replica-aware schedulers (RLOOK, RSATF) choose
// among them at dispatch time. Plain schedulers use the first candidate.
//
// Each candidate caches where its LBA lies (cylinder and rotational slot), so
// the schedulers rank a queue without re-deriving disk geometry on every
// pick. Only the drive queue (DriveQueue) writes the cache: it derives an
// entry's positions when the entry is pushed and re-derives them all when a
// latent-bad-sector remap relocates a sector to zone spare space, possibly
// on another cylinder. The replicas of one block normally share a cylinder,
// but a remap breaks that too, so schedulers bound costs per replica, never
// per entry.
#ifndef MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_
#define MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_

#include <cstdint>
#include <vector>

#include "src/disk/layout.h"
#include "src/disk/sim_disk.h"
#include "src/util/time.h"

namespace mimdraid {

// One replica a queued entry may be served from.
struct QueueCandidate {
  explicit QueueCandidate(BlockAddr at) : lba(at) {}

  BlockAddr lba;
  // Where `lba` lies, as of the layout the entry's queue is synced to.
  SectorPos pos;
};

struct QueuedRequest {
  // Stamped by DriveSet::EnqueueFg/EnqueueDelayed, as is `arrival_us`.
  uint64_t id = 0;
  DiskOp op = DiskOp::kRead;
  // Background replica propagation (serviced only when the foreground queue
  // is empty; see Section 3.4).
  bool delayed = false;
  uint32_t sectors = 0;
  std::vector<QueueCandidate> candidates;
  SimTime arrival_us;
  // Array-layer correlation handle: the mirror's fragment key, which starts
  // at 1. 0 on propagations and on maintenance entries (rebuild copies, scrub
  // and calibration reads), which the mirror routes by id through its hook
  // table.
  uint64_t tag = 0;
  // Recovery attempts already spent on the work this entry carries; a retry
  // enqueues a fresh entry (fresh id, so queue conservation holds) with
  // attempts + 1.
  uint32_t attempts = 0;
  // Push sequence number, stamped by DriveQueue::Push: increasing in push
  // order, which is the queue's scan order (ids are not: a forced-out
  // propagation joins the foreground queue after younger entries). A queue
  // that runs out of numbers renumbers its live entries from 0.
  uint32_t seq = 0;

  BlockAddr primary() const { return candidates.front().lba; }
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SCHED_QUEUED_REQUEST_H_
