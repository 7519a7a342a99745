// The shared drive-pool engine underneath every array backend: per-drive
// scheduler queues, the dispatch loop, recovery timers, consecutive-error
// auto-fail, fail-stop response, hot-spare promotion, the idle-gated scrub
// timer with its sweep-coverage tally, and the wiring of the three observer
// layers (InvariantAuditor, FaultInjector, TraceCollector).
// ArrayBackend (src/io/array_backend.h) owns one DriveSet and is its
// DriveSetClient; a redundancy policy (mirror heuristics + delayed
// propagation, or erasure-code geometry + RMW planning) speaks to the engine
// through the hooks below.
//
// The policy builds QueuedRequest values and enqueues them
// (EnqueueFg/EnqueueDelayed), which stamp each entry's id and arrival time
// and return the id; it gets every completion back through
// DriveSetClient::OnEntryComplete. The engine does the observer
// bookkeeping and fault counting; recovery is entirely the policy's, which
// picks its own retry unit (the mirror retries a fragment, the erasure
// controller a disk command) and re-enqueues through ScheduleRecovery.
// The engine also closes every fault record it opens: for every failed
// entry, run or handed back unrun, OnEntryComplete returns how the policy
// resolved it, and the engine files that resolution with the auditor.
//
// The engine is the only code that takes an entry out of a queue: dispatch,
// Cancel (a policy withdrawing work it no longer needs), ForceOutDelayed
// (delayed -> foreground), and the drain that runs when a slot fails
// (MarkFailed, AutoFail). Each reports the removal to the observers. A
// drained entry is a failed entry: it goes to OnEntryComplete with a
// synthetic kDiskFailed and an open fault record, like one the dead drive
// ran, and so does an entry enqueued on a slot that is already failed (from
// the next event turn). So every entry a policy enqueues comes back through
// OnEntryComplete unless the policy cancelled it.
#ifndef MIMDRAID_SRC_IO_DRIVE_SET_H_
#define MIMDRAID_SRC_IO_DRIVE_SET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
#include "src/obs/trace_collector.h"
#include "src/sched/queued_request.h"
#include "src/sched/scheduler.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/stats/fault_stats.h"

namespace mimdraid {

struct DriveSetOptions {
  SchedulerKind scheduler = SchedulerKind::kSatf;
  // Cap on SATF-class scan depth per dispatch (0 = whole queue).
  size_t max_scan = 0;
  // Observers. All borrowed; each must outlive the DriveSet. The engine wires
  // them into the simulator, every disk, every per-drive scheduler, and every
  // promoted spare; attaching any of them changes no scheduling decision.
  InvariantAuditor* auditor = nullptr;
  FaultInjector* fault_injector = nullptr;
  TraceCollector* collector = nullptr;
  // Consecutive-error budget per slot before the engine declares the drive
  // failed and promotes a hot spare (0 = never auto-fail on error count; an
  // explicit kDiskFailed verdict always auto-fails).
  uint32_t disk_error_fail_threshold = 0;
  // Period of the background scrubber (0 = off). Each tick that finds every
  // live drive quiet, no recovery timer armed, and the policy eligible
  // (DriveSetClient::ScrubEligible) runs one policy-defined ScrubStep.
  // Idle-gating is the rate limit: scrubbing never competes with foreground
  // work.
  SimDuration scrub_interval_us{};
};

// Policy hooks a backend implements on top of the engine. Calls arrive
// synchronously from inside the engine's dispatch/completion/failure paths.
class DriveSetClient {
 public:
  virtual ~DriveSetClient() = default;

  // An entry was picked and removed from a queue, observers notified, and is
  // about to be predicted + started on the drive. The mirror policy cancels
  // duplicate siblings here.
  virtual void OnEntryDispatched(SlotId /*disk*/,
                                 const QueuedRequest& /*entry*/) {}

  // An entry left the engine: the drive ran it at `chosen_lba`, or it never
  // ran (drained from a failed slot, or enqueued on one) and `result` is a
  // synthetic kDiskFailed with `chosen_lba` its first candidate. The engine
  // has already run the observer bookkeeping and, for a run entry, the fault
  // accounting (including a possible auto-fail); a non-kOk result has an
  // open fault record. Recovery policy for the entry is the client's.
  // Returns how the client resolved the failure exactly when the result is
  // not kOk, and std::nullopt otherwise; the engine checks that and closes
  // the record, judging a kAbandoned by whether the slot was failed at the
  // hand-back.
  virtual std::optional<FaultResolution> OnEntryComplete(
      SlotId disk, const QueuedRequest& entry, BlockAddr chosen_lba,
      const DiskOpResult& result) = 0;

  // May the engine promote a hot spare into the failed slot right now? A
  // policy with no redundancy to rebuild from says no.
  virtual bool SparePromotionAllowed(SlotId /*disk*/) { return true; }

  // Physical sectors of `disk`'s drive the policy actually addresses (the
  // span a replacement promoted into the slot must be able to resolve).
  // 0 = any drive qualifies. On heterogeneous fleets this is how the engine
  // rejects spares too small for the failed drive's used extent.
  virtual uint64_t UsedSpanSectors(SlotId /*disk*/) const { return 0; }

  // A spare took over `disk`'s slot (observers rewired, injector slot
  // reset). The slot is still marked failed; the policy starts its rebuild,
  // which clears the mark.
  virtual void OnSparePromoted(SlotId disk) = 0;

  // Policy-level scrub gating beyond the engine's (no outstanding logical
  // ops, no rebuild in progress, ...).
  virtual bool ScrubEligible() const { return true; }

  // Issue the next chunk of verification work. Called at most once per timer
  // tick, only when the whole stack is idle.
  virtual void ScrubStep() {}
};

class DriveSet {
 public:
  // `disks` and `predictors` are parallel, same-size, borrowed. `client` is
  // borrowed and must outlive the DriveSet; no hook is called from the
  // constructor.
  DriveSet(Simulator* sim, std::vector<SimDisk*> disks,
           std::vector<AccessPredictor*> predictors, DriveSetClient* client,
           const DriveSetOptions& options);

  DriveSet(const DriveSet&) = delete;
  DriveSet& operator=(const DriveSet&) = delete;

  // Cancels the scrub timer. In-flight disk operations must have drained
  // (their completion callbacks hold `this`).
  ~DriveSet();

  // --- Slots ---
  size_t num_slots() const { return disks_.size(); }
  Simulator* sim() { return sim_; }
  SimDisk* disk(SlotId slot) { return disks_[slot.value()]; }
  const SimDisk* disk(SlotId slot) const { return disks_[slot.value()]; }
  AccessPredictor* predictor(SlotId slot) { return predictors_[slot.value()]; }
  bool failed(SlotId slot) const { return failed_[slot.value()]; }
  // Declares `slot` failed: flags it, makes the fault injector's verdict
  // binding (FailStop) so the drive cannot half-work its way back, and
  // drains its queues — delayed first, then foreground (see the header
  // comment). No stats and no spare promotion: a policy's FailDisk calls it
  // directly; AutoFail adds both.
  void MarkFailed(SlotId slot);
  // A replacement drive now holds `slot`'s data path: clears the flag and
  // the injector's fault state for the slot (ReplaceDisk). A policy's
  // rebuild calls it when it starts repopulating the slot.
  void MarkReplaced(SlotId slot);

  InvariantAuditor* auditor() { return options_.auditor; }
  FaultInjector* fault_injector() { return options_.fault_injector; }
  TraceCollector* collector() { return options_.collector; }
  const DriveSetOptions& options() const { return options_; }
  FaultRecoveryStats& fstats() { return fstats_; }
  const FaultRecoveryStats& fstats() const { return fstats_; }

  // --- Queues ---
  // Queue conservation: EnqueueFg/EnqueueDelayed give every entry a fresh
  // id, increasing in enqueue order, and report it queued once; it leaves
  // exactly once — by dispatch, Cancel, or a failed-slot drain, all of which
  // the engine reports to the auditor.
  std::span<const QueuedRequest> fg(SlotId slot) const {
    return fg_[slot.value()].live();
  }
  std::span<const QueuedRequest> delayed(SlotId slot) const {
    return delayed_[slot.value()].live();
  }
  // Both overwrite `entry.id` and `entry.arrival_us` (now) and return the id.
  // Neither dispatches. On a failed slot the entry is not queued: it is
  // handed back unrun with a kDiskFailed from the next event turn.
  uint64_t EnqueueFg(SlotId slot, QueuedRequest entry);
  uint64_t EnqueueDelayed(SlotId slot, QueuedRequest entry);
  // Removes entry `id` from `slot`'s foreground or delayed queue without
  // running it; the owner is not called back. Returns false when the entry
  // is not queued there (already dispatched).
  bool Cancel(SlotId slot, uint64_t id);
  // Moves the oldest entry of `slot`'s non-empty delayed queue to the back
  // of its foreground queue (the NVRAM table's force-out), in amortized O(1).
  // Does not dispatch.
  void ForceOutDelayed(SlotId slot);
  // Picks and starts the next entry on `slot` if the drive is live and idle.
  // Foreground entries always outrank delayed ones. The queue's candidate
  // positions are refreshed (RefreshPositions) right before the pick, so an
  // entry's positions are computed the first time it is ranked and again
  // only after a remap on the drive.
  void MaybeDispatch(SlotId slot);
  size_t TotalFgQueued() const;
  size_t TotalDelayedQueued() const;
  // Every slot (failed included) idle with empty queues — the drive half of a
  // backend's Idle().
  bool AllDrivesQuiet() const;
  // Like AllDrivesQuiet but failed slots are skipped (scrub gating).
  bool LiveDrivesQuiet() const;

  // --- Failure response ---
  // Declares `slot` failed in response to an error verdict: counts it,
  // MarkFailed (fail-stop and drain), then promotes a hot spare if one is
  // registered and the policy allows it. Idempotent.
  void AutoFail(SlotId slot);
  // Registers a standby drive + predictor (borrowed). Wired to the observers
  // only on promotion. Compatibility with a failed slot is checked at
  // promotion time (the used span differs per slot): a candidate that cannot
  // resolve the slot's used span or whose sector size differs is skipped and
  // counted in fstats().spare_rejected — once per pooled spare, not once per
  // promotion attempt that re-skips it; it stays pooled for slots it fits.
  void AddSpare(SimDisk* disk, AccessPredictor* predictor);
  size_t spares_available() const { return spares_.size(); }

  // --- Recovery timers ---
  // Runs `fn` after RecoveryBackoffUs(attempt); pending_recovery() stays
  // non-zero until every such timer has fired (backends fold it into Idle()).
  void ScheduleRecovery(uint32_t attempt, std::function<void()> fn);
  // Runs `fn` at the next event-queue turn (synthetic completions that must
  // not run inside the caller's stack frame), bracketed the same way.
  void CompleteDeferred(std::function<void()> fn);
  size_t pending_recovery() const { return pending_recovery_; }

  // Arms the periodic scrub timer (no-op when scrub_interval_us == 0). A
  // backend calls it last in its constructor, after its own timers: events
  // due at the same time fire in creation order, and the goldens lock that
  // order.
  void StartScrub();
  // Cancels the periodic scrub timer (in-flight scrub work drains normally).
  void StopScrub();
  // Sweep coverage: the policy's ScrubStep reports every unit its sweep
  // covers — `issued` when it queued the verification read, false when the
  // unit sits on a drive it cannot read — and calls EndScrubSweep when its
  // cursor wraps. That counts the sweep and records issued / nominal sectors
  // in fstats().scrub_last_sweep_coverage.
  void NoteScrubUnit(uint64_t sectors, bool issued) {
    sweep_sectors_nominal_ += sectors;
    if (issued) {
      sweep_sectors_issued_ += sectors;
    }
  }
  void EndScrubSweep();

 private:
  // One drive queue, in scan order (the order decides scheduler ties).
  // Dispatch and Cancel take entries out of the middle. Taking the front only
  // advances `head_` past a moved-from slot; the dead prefix is compacted
  // away once it reaches a sixteenth of the vector, so a front pop costs
  // amortized O(1) and the vector stays within 1/16 of the live size.
  class EntryQueue {
   public:
    std::span<QueuedRequest> live() {
      return std::span<QueuedRequest>(slots_).subspan(head_);
    }
    std::span<const QueuedRequest> live() const {
      return std::span<const QueuedRequest>(slots_).subspan(head_);
    }
    size_t size() const { return slots_.size() - head_; }
    bool empty() const { return head_ == slots_.size(); }
    void Push(QueuedRequest entry) { slots_.push_back(std::move(entry)); }
    // Removes and returns live()[i].
    QueuedRequest Take(size_t i);
    // Removes and returns every live entry, in order.
    std::vector<QueuedRequest> Drain();

   private:
    std::vector<QueuedRequest> slots_;
    size_t head_ = 0;
  };

  // Stamps `entry` with a fresh id and the current time, reports it queued
  // and pushes it onto `queue` — or, when `slot` is failed, hands it back
  // unrun from the next event turn. Returns the id.
  uint64_t Admit(SlotId slot, EntryQueue& queue, QueuedRequest entry);
  // Reports a run entry completed, counts a failure, then hands it back.
  void HandleCompletion(SlotId slot, const QueuedRequest& entry,
                        BlockAddr chosen_lba, const DiskOpResult& result);
  // Gives `entry` to its owner: opens the fault record of a failure, calls
  // OnEntryComplete, checks that it returned a resolution exactly for a
  // failure, and files that resolution with the auditor.
  void HandBack(SlotId slot, const QueuedRequest& entry, BlockAddr chosen_lba,
                const DiskOpResult& result);
  // Empties `slot`'s delayed, then foreground queue, handing each entry back
  // to its owner unrun (see the header comment).
  void FailQueued(SlotId slot);
  void CountFault(SlotId slot, IoStatus status);
  // Wires the auditor, fault injector and trace collector (each possibly
  // nullptr) into the drive that holds `slot`.
  void AttachObservers(SlotId slot);
  void PromoteSpareIfAvailable(SlotId slot);
  void ScheduleScrubTick();
  void ScrubTick();

  Simulator* sim_;
  std::vector<SimDisk*> disks_;
  std::vector<AccessPredictor*> predictors_;
  DriveSetClient* client_;
  DriveSetOptions options_;

  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  std::vector<EntryQueue> fg_;
  std::vector<EntryQueue> delayed_;
  uint64_t next_entry_id_ = 1;

  struct SpareEntry {
    SimDisk* disk = nullptr;
    AccessPredictor* predictor = nullptr;
    // Whether this spare's incompatibility has already landed in
    // fstats().spare_rejected. A pooled spare can be re-examined (and
    // re-skipped) by every later promotion attempt; the counter tracks
    // distinct incompatible spares, not skip events.
    bool rejection_counted = false;
  };

  std::vector<bool> failed_;
  std::vector<uint64_t> error_counts_;
  std::vector<SpareEntry> spares_;
  size_t pending_recovery_ = 0;
  EventId scrub_event_;
  uint64_t sweep_sectors_issued_ = 0;
  uint64_t sweep_sectors_nominal_ = 0;

  FaultRecoveryStats fstats_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_IO_DRIVE_SET_H_
