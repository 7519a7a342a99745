// General (k+m) erasure-coded array controller: Reed-Solomon/Cauchy coding
// over GF(2^8), degraded reads via matrix-inversion reconstruction,
// multi-fault tolerance up to m concurrent failures with multi-slot rebuild,
// and per-request parity-update strategy selection (read-modify-write vs
// reconstruct-write by I/O-count argmin).
//
// This is the parity ArrayBackend and the capacity-efficient end of the
// paper's frontier: k+1 is RAID-5 (what ArrayBackendKind::kRaid5 runs), k+2
// is RAID-6, larger m buys tolerance of m concurrent failures at k/(k+m)
// capacity efficiency. Like ArrayController it is a policy layer: the
// per-drive machinery — scheduler queues, dispatch, recovery timers, fault
// counting, auto-fail, hot-spare promotion, the scrub timer, observer
// wiring — lives in the shared DriveSet engine that ArrayBackend owns. Its
// retry unit is the single-disk command: a transient failure is retried in
// place up to kMaxRecoveryAttempts times before the command's callback sees
// it.
//
// Write planning: for a fragment targeting data shard D with p <= m live
// parity columns, read-modify-write costs (1 + p) reads + (1 + p) writes
// (old data + old parities in, deltas out) and needs D readable;
// reconstruct-write costs (k - 1) reads when every other data column is
// readable, or k reads through an arbitrary decode set otherwise, plus the
// same writes. The controller prices both and takes the cheaper plan, tied
// toward RMW. For RAID-5 (m = 1) with k >= 3 that is the classic
// four-access small write for every healthy fragment, full units included.
// With fewer than k readable columns and no RMW path the fragment completes
// with IoStatus::kUnrecoverable — never a crash.
//
// Rebuild: a slot's pass recomputes it row by row through a k-column decode
// set (ArrayBackend::Rebuild queues the slots). Up to m concurrent failures
// stay fully serviceable throughout.
#ifndef MIMDRAID_SRC_EC_EC_CONTROLLER_H_
#define MIMDRAID_SRC_EC_EC_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/io/array_backend.h"
#include "src/io/drive_set.h"
#include "src/obs/trace_collector.h"
#include "src/sched/scheduler.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/stats/fault_stats.h"

namespace mimdraid {

struct EcControllerStats {
  // Strategy counts (every write fragment lands in exactly one):
  uint64_t rmw_writes = 0;          // parity delta from old data + old parity
  uint64_t reconstruct_writes = 0;  // parity recomputed from the data columns
  uint64_t degraded_reads = 0;      // served through a decode set
  // Write fragments planned around at least one unusable row member (counted
  // in addition to the strategy tally above).
  uint64_t degraded_writes = 0;
  uint64_t rebuilt_rows = 0;
};

class EcController : public ArrayBackend {
 public:
  // `codec` and `layout` are borrowed and must outlive the controller;
  // codec->n() must equal layout->num_disks() and codec->k() the layout's
  // data_shards(). `options` configures the drive-pool engine; the erasure
  // policy has no settings of its own.
  EcController(Simulator* sim, std::vector<SimDisk*> disks,
               std::vector<AccessPredictor*> predictors,
               const EcLayout* layout, const EcCodec* codec,
               const DriveSetOptions& options);

  void Submit(DiskOp op, uint64_t lba, uint32_t sectors, DoneFn done) override;

  // Logical capacity (parity excluded): rows * k * unit.
  uint64_t dataset_sectors() const override {
    return layout_->data_capacity_sectors();
  }

  // Marks a disk failed. Up to m concurrent losses are survived: reads
  // decode through any k live columns, writes re-plan around the missing
  // members. Past m, affected fragments complete with
  // IoStatus::kUnrecoverable instead of crashing. Always returns true: every
  // single loss is covered by the code.
  bool FailDisk(SlotId disk) override;

  const EcControllerStats& stats() const { return stats_; }
  const EcLayout& layout() const { return *layout_; }
  const EcCodec& codec() const { return *codec_; }

  // Publishes "fault.*" and "ec.*" counters.
  void ExportStats(StatsRegistry* registry) const override;

  // Runs the auditor's terminal consistency check (queues and the command
  // table must be empty); a no-op when no auditor is attached.
  void AuditQuiescent() const override;

 private:
  // One logical fragment moving through its phases (reads, then writes).
  // Owned by shared_ptr because several disk sub-ops reference it.
  struct FragWork {
    uint64_t op_id = 0;
    EcFragment frag;
    DiskOp op = DiskOp::kRead;
    int phase_remaining = 0;
    // Set when a write fragment was re-planned (a member died, or a
    // pre-image read failed); stale sub-op completions for an abandoned plan
    // are ignored. A read fragment never needs it: its one direct read
    // decides the failover itself, and a decode plan is never re-planned.
    bool abandoned = false;
    // Write plan made as if the data disk's old contents were unreadable (a
    // media error exhausted its retry budget).
    bool force_degraded = false;
    // After a media-error read is served via reconstruction, rewrite the bad
    // sectors so the drive reallocates them.
    bool repair_pending = false;
    // kUnrecoverable once any sub-operation's loss could not be absorbed.
    IoStatus status = IoStatus::kOk;
  };

  // Takes the terminal result of a disk command and returns how the
  // callback resolved a failure (std::nullopt for kOk). OnEntryComplete hands
  // that to the engine, which closes the fault record with it — also for the
  // synthetic kDiskFailed of a command that never ran (drained from a failed
  // slot, or enqueued on one).
  using CommandDoneFn =
      std::function<std::optional<FaultResolution>(const DiskOpResult&)>;

  // --- DriveSetClient hooks ---
  // Ends a command: retries a transient failure on a live slot while
  // attempts remain (kRetried), otherwise hands the result to the command's
  // callback and returns its resolution. kDiskFailed, run or not, is never
  // retried.
  std::optional<FaultResolution> OnEntryComplete(
      SlotId disk, const QueuedRequest& entry, BlockAddr chosen_lba,
      const DiskOpResult& result) override;
  uint64_t UsedSpanSectors(SlotId disk) const override;
  // One scrub chunk: reads every usable unit of the next stripe row.
  void ScrubStep() override;

  void SubmitReadFragment(uint64_t op_id, const EcFragment& frag,
                          bool force_degraded = false,
                          bool repair_on_success = false);
  void SubmitWriteFragment(uint64_t op_id, const EcFragment& frag,
                           bool force_degraded = false);
  // Queues one single-disk command whose terminal result goes to `done`
  // (kOk, a transient failure that exhausted its retries, or kDiskFailed).
  // On an already-failed slot the engine hands the command back with a
  // synthetic kDiskFailed from the next event-queue turn, so callers re-plan
  // from a clean stack.
  void EnqueueDiskOp(uint32_t disk, DiskOp op, uint64_t lba, uint32_t sectors,
                     CommandDoneFn done, uint32_t attempts = 0);
  // `last` is the sub-op whose completion ended the phase (nullptr when
  // none did).
  void FragmentPhaseDone(const std::shared_ptr<FragWork>& work,
                         const DiskOpResult* last = nullptr);
  // Ends one fragment of op `op_id`. Parity sub-ops have no single queue
  // timestamp for the logical request, so the final leg reported to the
  // collector starts at `last`'s disk start: queue_us reads 0 and everything
  // before it (RMW read phases, decode reads, queueing) lands in the recovery
  // residual.
  void FinishFragment(uint64_t op_id, IoStatus status,
                      const DiskOpResult* last);
  // Ends a fragment as kUnrecoverable from the next event-queue turn.
  void CompleteFragmentFailed(uint64_t op_id);

  // Reconstructs the slot row by row through a k-column decode set; the
  // pass ends kOk when every row was rebuilt, kUnrecoverable when some rows
  // had fewer than k readable columns, kDiskFailed when the replacement died.
  void StartRebuildPass(SlotId slot) override;
  // Ends the active pass with kDiskFailed when `disk` is its slot.
  void AbortRebuild(uint32_t disk);
  void RebuildNextRow();

  // True if the disk holds valid row data right now (alive, not waiting in
  // the rebuild queue, and — when it is the active rebuild target — already
  // rebuilt past the row).
  bool DiskUsable(uint32_t disk, uint32_t row) const;
  // The decode set for `row`: the first k columns, in ascending disk order,
  // whose old contents are readable, excluding `excluding_disk` (pass
  // num_disks() to exclude none). `unreadable_disk` marks a disk whose drive
  // is alive but whose unit for this row cannot be read (media-error
  // fallback). Empty when fewer than k columns are readable.
  std::vector<uint32_t> DecodeSet(uint32_t row, uint32_t excluding_disk,
                                  uint32_t unreadable_disk) const;

  Simulator* sim_;
  const EcLayout* layout_;
  const EcCodec* codec_;
  InvariantAuditor* auditor_ = nullptr;

  // Active pass: rows < rebuilt_rows_ of rebuilding() are valid.
  uint32_t rebuilt_rows_ = 0;
  uint64_t rebuild_rows_lost_ = 0;

  uint32_t scrub_cursor_ = 0;  // next stripe row to sweep

  // Callbacks of the commands in the engine's queues, keyed by entry id.
  std::unordered_map<uint64_t, CommandDoneFn> commands_;

  EcControllerStats stats_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_EC_EC_CONTROLLER_H_
