// The Disk Configuration + Scheduling layers of the prototype (Sections 3.1,
// 3.3, 3.4): translates logical array I/O into per-drive queue entries,
// implements the mirror read heuristic (idle-closest dispatch,
// duplicate-and-cancel when busy), and propagates write replicas in the
// background through per-disk delayed-write queues backed by an NVRAM
// metadata table with a force-out threshold.
//
// The per-drive machinery — scheduler queues, the dispatch loop, fault
// counting, auto-fail, hot-spare promotion, the scrub timer, observer
// wiring — lives in the shared DriveSet engine (src/io/drive_set.h) that
// ArrayBackend owns; this class is the mirror *policy* over that engine and
// one of the two ArrayBackend implementations.
#ifndef MIMDRAID_SRC_ARRAY_CONTROLLER_H_
#define MIMDRAID_SRC_ARRAY_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/nvram_table.h"
#include "src/calib/predictor.h"
#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
#include "src/io/array_backend.h"
#include "src/io/drive_set.h"
#include "src/obs/trace_collector.h"
#include "src/sched/scheduler.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/stats/fault_stats.h"
#include "src/util/extent_map.h"

namespace mimdraid {

struct ArrayControllerOptions {
  // The drive-pool engine's settings (scheduler, observers, auto-fail,
  // scrub); the mirror schedules with RSATF unless told otherwise.
  DriveSetOptions drives{.scheduler = SchedulerKind::kRsatf};
  // NVRAM delayed-write metadata table capacity; above this, pending delayed
  // writes are forced into the foreground queues (Section 3.4).
  size_t delayed_table_limit = 10'000;
  // Period of maintenance reference-sector reads feeding re-calibration
  // (paper: two minutes). 0 disables.
  SimDuration recalibration_interval_us;
  // When true, every replica of a write is written in the foreground and the
  // write completes only after all copies land (the "foreground propagation"
  // mode of Figures 5 and 13). When false, the write completes after the
  // first copy; the rest propagate in the background.
  bool foreground_write_propagation = false;
};

struct ArrayStats {
  uint64_t delayed_writes_completed = 0;
  uint64_t delayed_writes_forced = 0;   // moved to FG by the table limit
  uint64_t delayed_writes_discarded = 0;  // superseded by a newer write
  uint64_t read_duplicates_cancelled = 0;
  uint64_t maintenance_reads = 0;
  uint64_t parked_reads = 0;  // reads ordered behind an in-flight write
  // Reads served while every replica carried a stale marker (possible only
  // under partially overlapping unaligned writes; see SubmitReadFragment).
  uint64_t stale_fallback_reads = 0;
};

class ArrayController : public ArrayBackend {
 public:
  // `disks` and `predictors` are parallel arrays of size
  // layout->num_disks(); the controller borrows them.
  ArrayController(Simulator* sim, std::vector<SimDisk*> disks,
                  std::vector<AccessPredictor*> predictors,
                  const ArrayLayout* layout,
                  const ArrayControllerOptions& options);

  // Cancels pending maintenance timers. The controller must be idle (no
  // in-flight disk operation holds a completion callback into it).
  ~ArrayController() override;

  // Submits a logical I/O. `done` fires at the simulated completion time
  // (first-copy time for writes unless foreground propagation is on).
  void Submit(DiskOp op, uint64_t lba, uint32_t sectors, DoneFn done) override;

  const ArrayStats& stats() const { return stats_; }
  const ArrayLayout& layout() const { return *layout_; }
  uint64_t dataset_sectors() const override {
    return layout_->dataset_sectors();
  }

  // Outstanding foreground entries across all drive queues (dispatched
  // requests excluded).
  size_t TotalQueued() const { return drives().TotalFgQueued(); }
  // Pending background replica propagations (the NVRAM table occupancy).
  size_t DelayedBacklog() const { return nvram_.size(); }
  // The delayed-write metadata table (what NVRAM preserves across a crash).
  const NvramTable& nvram() const { return nvram_; }
  // Crash recovery (Section 3.4): re-queues the propagation of every replica
  // recorded in a surviving NVRAM snapshot. Call on a freshly constructed
  // controller before offering load.
  void RestorePropagations(const std::vector<NvramEntry>& entries);

  // Runs the auditor's terminal consistency check (queues, NVRAM table,
  // stale markers, parked reads, fragments and maintenance hooks must all
  // be empty). Call once the array reports Idle(); a no-op when no auditor
  // is attached.
  void AuditQuiescent() const override;

  // --- Disk failure and rebuild (the Section 2.5 reliability argument). ---
  // Marks a disk failed. Every block with a surviving copy (Dm >= 2, or
  // pending same-data replicas elsewhere) keeps being served; returns false
  // if the configuration cannot tolerate the loss (Dm == 1: an SR-Array
  // column has no cross-disk copy — data loss). The array must be quiescent
  // on that disk (no in-flight command).
  bool FailDisk(SlotId disk) override;
  // Copies written by rebuild passes.
  uint64_t rebuild_copied_fragments() const { return rebuild_copied_; }

  // Publishes "fault.*" and "array.*" counters.
  void ExportStats(StatsRegistry* registry) const override;

 private:
  struct FragState {
    uint64_t op_id = 0;
    uint64_t logical_lba = 0;
    uint32_t sectors = 0;
    DiskOp op = DiskOp::kRead;
    std::vector<ReplicaLocation> replicas;
    uint32_t entries_remaining = 0;  // FG entries that must still complete
    // Entries queued for this fragment (for duplicate cancellation).
    std::vector<std::pair<uint32_t, uint64_t>> queued;  // (disk, entry id)
    // --- Recovery state ---
    uint32_t attempts = 0;  // in-place retries spent (timeouts)
    // Replicas that returned a media error this fragment lifetime; excluded
    // from failover candidate sets and rewritten (repaired) once the
    // fragment completes from a surviving copy.
    std::vector<ReplicaLocation> bad_replicas;
    // Replicas that landed (foreground propagation mode only).
    uint32_t successes = 0;
    IoStatus status = IoStatus::kOk;  // kOk or kUnrecoverable
  };

  struct ParkedRequest {
    DiskOp op;
    uint64_t lba;
    uint32_t sectors;
    DoneFn done;
    SimTime issue_us;
  };

  // The copy writes of one rebuild fragment: the last one in resumes the
  // stream of slot `disk` at logical LBA `resume`.
  struct RebuildCopy {
    uint32_t disk = 0;
    uint64_t resume = 0;
    size_t writes_left = 0;
  };

  // --- DriveSetClient hooks ---
  // A dispatched fragment entry cancels its duplicates on the other disks; a
  // dispatched propagation marks its NVRAM record.
  void OnEntryDispatched(SlotId slot, const QueuedRequest& entry) override;
  // The mirror's one switch over its entry kinds: maintenance (runs the
  // entry's hook), propagation, and fragment. Returns the recovery path's
  // resolution of a failure, run or drained alike.
  std::optional<FaultResolution> OnEntryComplete(
      SlotId slot, const QueuedRequest& entry, BlockAddr chosen_addr,
      const DiskOpResult& result) override;
  bool SparePromotionAllowed(SlotId slot) override;
  // Physical span the slot's column occupies through its drive's placement —
  // the extent a promoted spare must resolve.
  uint64_t UsedSpanSectors(SlotId slot) const override;
  // One scrub chunk: reads every live replica of the next stripe unit of the
  // logical space.
  void ScrubStep() override;

  // Reads parked behind in-flight writes.
  bool RequestsWaiting() const override { return !parked_.empty(); }
  // Re-populates the slot from its mirror twins, fragment by fragment; the
  // pass ends kOk once every fragment with a surviving source is copied, or
  // kDiskFailed when the replacement dies. Requires Dm >= 2.
  void StartRebuildPass(SlotId slot) override;

  void SubmitInternal(DiskOp op, uint64_t lba, uint32_t sectors, DoneFn done,
                      SimTime issue_us);
  // Both return false when no live candidate disk remains; the fragment is
  // then completed with kUnrecoverable instead of being queued.
  bool SubmitReadFragment(FragState& frag, uint64_t frag_key);
  bool SubmitWriteFragment(FragState& frag, uint64_t frag_key);
  void AuditMappedFragments(uint64_t lba, uint32_t sectors,
                            const std::vector<ArrayFragment>& fragments) const;
  // `leg` is the decomposition of the disk op whose completion completed the
  // fragment; nullptr on paths with no such op (unrecoverable completions,
  // lost foreground-propagation replicas).
  void CompleteFragment(uint64_t frag_key, FragState& frag,
                        uint32_t chosen_disk, uint64_t chosen_lba,
                        const FinalLeg* leg = nullptr);
  void AddDelayedWrite(uint32_t disk, uint64_t lba, uint32_t sectors,
                       uint32_t attempts = 0);
  void CancelPendingDelayed(uint32_t disk, uint64_t lba);
  void EnforceDelayedTableLimit();
  void WakeParked();
  void ScheduleRecalibration(uint32_t disk);
  void RebuildNextFragment(uint32_t disk, uint64_t next_lba);
  void EnqueueRebuildWrite(ReplicaLocation loc, uint32_t len,
                           std::shared_ptr<RebuildCopy> copy);
  // One copy write is in, `copied` or lost; counts it and advances the
  // stream after the fragment's last.
  void EndRebuildWrite(RebuildCopy& copy, bool copied);

  // --- Fault recovery ---
  // Recovery for a failed fragment or propagation entry, whether the drive
  // ran it or it was drained from a failed slot (a kDiskFailed: the fragment
  // fails over, the replica or propagation is abandoned); each returns how
  // it resolved the fault the engine has on record.
  FaultResolution HandleReadFailure(uint32_t disk, const QueuedRequest& entry,
                                    uint64_t chosen_lba,
                                    const DiskOpResult& result);
  FaultResolution HandleWriteFailure(uint32_t disk, const QueuedRequest& entry,
                                     uint64_t chosen_lba);
  FaultResolution HandleDelayedFailure(uint32_t disk,
                                       const QueuedRequest& entry,
                                       uint64_t chosen_lba);
  void CompleteFragmentUnrecoverable(uint64_t frag_key, FragState& frag);
  // A foreground-propagation replica write was lost (its disk failed);
  // accounts it and completes the fragment when all entries are in.
  void LoseWriteReplica(uint64_t frag_key);

  Simulator* sim_;
  const ArrayLayout* layout_;
  ArrayControllerOptions options_;
  InvariantAuditor* auditor_ = nullptr;

  std::vector<EventId> recalibration_events_;

  uint64_t next_frag_key_ = 1;
  std::unordered_map<uint64_t, FragState> frags_;

  // Pending background propagation, keyed by replica location (the NVRAM
  // metadata table). Each record says whether its owning entry is still
  // queued (delayed queue, or FG queue if forced out) or dispatched; the
  // table reports its own changes to the auditor.
  NvramTable nvram_;
  // Replica state. Physical sectors, keyed by ReplicaKey, count 1 while a
  // propagation to them is pending and 0 once it lands, is cancelled or
  // abandoned, or a winning write covers them (set, never decremented).
  ExtentMap stale_;
  // Logical sectors count their in-flight foreground writes: a read that
  // overlaps any nonzero count parks behind them (ordering barrier).
  ExtentMap inflight_;
  std::vector<ParkedRequest> parked_;

  uint64_t rebuild_copied_ = 0;
  // Completion hooks of the maintenance entries (rebuild copies, scrub and
  // recalibration reads), keyed by entry id; an id found here is what marks
  // an entry as maintenance (its tag is 0). A hook runs once, from
  // OnEntryComplete, with its entry's result: a kDiskFailed when the entry
  // was drained unrun from a failed slot. It returns how a failed result was
  // resolved; OnEntryComplete hands that to the engine for any non-kOk
  // result.
  using MaintenanceHook = std::function<FaultResolution(const DiskOpResult&)>;
  std::unordered_map<uint64_t, MaintenanceHook> maintenance_;
  // Replica sources that returned a media error during rebuild/scrub
  // sourcing; never picked again (keyed by ReplicaKey).
  std::unordered_set<uint64_t> bad_sources_;

  uint64_t scrub_cursor_ = 0;  // next logical LBA to sweep

  ArrayStats stats_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_ARRAY_CONTROLLER_H_
