// The backend-neutral face of an array: what MimdRaid, benches, and the
// conformance suite program against. A backend is a redundancy policy
// (mirroring, erasure coding) layered over the shared DriveSet engine, which
// this base class owns. The drive-pool operations — failed-slot queries, the
// hot-spare pool, the scrub timer, fault counters — are the engine's and are
// written here once, as are the lifecycle of a logical op (BeginOp ..
// FinishOpPart) and rebuild scheduling (Rebuild .. FinishRebuild); a policy
// supplies only what differs: how an op splits into disk work, explicit
// failure control, one slot's rebuild pass, the terminal audit, stats
// export, and the remaining DriveSetClient hooks.
#ifndef MIMDRAID_SRC_IO_ARRAY_BACKEND_H_
#define MIMDRAID_SRC_IO_ARRAY_BACKEND_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/disk/access_predictor.h"
#include "src/disk/sim_disk.h"
#include "src/io/drive_set.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/stats/fault_stats.h"

namespace mimdraid {

// Which redundancy policy an assembled array runs over the DriveSet engine.
enum class ArrayBackendKind {
  kMirror,   // ArrayController: Ds x Dr x Dm replica layout (SR/ML/ABL)
  kRaid5,    // kErasure with m fixed at 1 (k = n - 1): rotating parity
  kErasure,  // EcController: general (k+m) Reed-Solomon/Cauchy coding
};

// Parity shards per stripe row (m) an erasure-coded backend runs: kRaid5
// fixes m at 1, kErasure takes the configured `parity_shards`.
inline uint32_t ParityShardsFor(ArrayBackendKind kind,
                                uint32_t parity_shards) {
  return kind == ArrayBackendKind::kRaid5 ? 1 : parity_shards;
}

// Logical ops a backend completed with kOk, by direction.
struct OpStats {
  uint64_t reads_completed = 0;
  uint64_t writes_completed = 0;
};

class ArrayBackend : protected DriveSetClient {
 public:
  // Completion carries a full IoResult: kOk, or kUnrecoverable when every
  // recovery avenue (retry, failover, reconstruction, repair) is exhausted.
  // Intermediate statuses are absorbed by the recovery machinery and never
  // surface here.
  using DoneFn = std::function<void(const IoResult&)>;

  ArrayBackend(const ArrayBackend&) = delete;
  ArrayBackend& operator=(const ArrayBackend&) = delete;
  ~ArrayBackend() override = default;

  // Submits a logical I/O against the backend's logical address space
  // ([0, dataset_sectors())). `done` fires at the simulated completion time.
  virtual void Submit(DiskOp op, uint64_t lba, uint32_t sectors,
                      DoneFn done) = 0;

  // Logical capacity in sectors.
  virtual uint64_t dataset_sectors() const = 0;

  // --- Failure, rebuild, spares ---
  // Marks a disk failed; returns false if the configuration cannot tolerate
  // the loss (no redundancy covering the disk — data loss).
  virtual bool FailDisk(SlotId disk) = 0;
  bool IsFailed(SlotId disk) const { return drives_.failed(disk); }
  // Re-populates a replaced drive in the failed slot `disk` from the
  // surviving redundancy. Slots queue: one slot rebuilds at a time, and a
  // slot rebuilt while another pass runs (an explicit call, or a spare
  // promoted into a second failed slot) waits in FIFO order. A queued slot
  // stays marked failed, since its drive holds no data yet, so service keeps
  // working around it until its pass starts. `done` fires once, when the
  // slot's pass ends: kOk when it ran to the end, kUnrecoverable when the
  // erasure controller could not decode some rows (the mirror instead counts
  // copies with no surviving source in rebuild_fragments_lost), kDiskFailed
  // when the replacement died mid-pass.
  void Rebuild(SlotId disk, DoneFn done);
  bool RebuildInProgress() const { return rebuilding_.has_value(); }
  // Registers a standby drive + predictor (borrowed; must outlive the
  // backend) for automatic promotion into a slot the engine fail-stops.
  void AddSpare(SimDisk* disk, AccessPredictor* predictor) {
    drives_.AddSpare(disk, predictor);
  }
  size_t spares_available() const { return drives_.spares_available(); }

  // --- Quiescence and teardown ---
  // No logical op outstanding or waiting, no rebuild pass running, every
  // queue empty, no recovery timer armed.
  bool Idle() const;
  // Cancels the periodic scrub timer (in-flight scrub work drains normally).
  // Call before draining to quiescence.
  void StopScrub() { drives_.StopScrub(); }
  // Re-arms the periodic scrub timer after a StopScrub (a no-op when already
  // armed or when the backend was configured without scrubbing). Sweep state
  // survives the stop/start pair: the next step resumes from the cursor the
  // last one left.
  void StartScrub() { drives_.StartScrub(); }
  // Runs the auditor's terminal consistency check; a no-op when no auditor
  // is attached. Call once Idle() reports true.
  virtual void AuditQuiescent() const = 0;

  // --- Stats ---
  const FaultRecoveryStats& fault_stats() const { return drives_.fstats(); }
  const OpStats& op_stats() const { return op_stats_; }
  // Publishes the backend's counters under stable names ("fault.*" plus a
  // backend-specific prefix) so traced runs carry backend stats.
  virtual void ExportStats(StatsRegistry* registry) const = 0;

 protected:
  // `disks` and `predictors` are parallel, same-size, borrowed. The engine is
  // built with this backend as its client; no hook runs before the policy's
  // constructor body, which arms the scrub timer (StartScrub) once its own
  // constructor-time timers exist.
  ArrayBackend(Simulator* sim, std::vector<SimDisk*> disks,
               std::vector<AccessPredictor*> predictors,
               const DriveSetOptions& options)
      : drives_(sim, std::move(disks), std::move(predictors), this, options) {}

  // --- DriveSetClient hooks this base answers for every policy ---
  // The spare holds no data yet: rebuild the slot (queued behind an active
  // pass), and count the rebuild when it restores the slot.
  void OnSparePromoted(SlotId disk) final;
  // The engine has already checked its own half of the gate (recovery
  // timers, live-drive quiescence).
  bool ScrubEligible() const final;

  // Logical requests the policy holds outside the engine's queues (the
  // mirror's reads parked behind in-flight writes). The one policy term in
  // Idle and ScrubEligible.
  virtual bool RequestsWaiting() const { return false; }

  // --- Rebuild passes ---
  // Starts repopulating the failed `slot` (already marked replaced). The
  // pass reports its end, exactly once, through FinishRebuild.
  virtual void StartRebuildPass(SlotId slot) = 0;
  // Ends the active pass with `status`: fires its `done`, then starts the
  // next queued slot.
  void FinishRebuild(IoStatus status);
  // The slot whose pass is running, if any.
  std::optional<SlotId> rebuilding() const { return rebuilding_; }

  DriveSet& drives() { return drives_; }
  const DriveSet& drives() const { return drives_; }
  FaultRecoveryStats& fstats() { return drives_.fstats(); }

  // --- Logical ops ---
  // An op is a submitted logical I/O split into `parts` independently
  // completing pieces (fragments). BeginOp records its arrival (issued at
  // `issue_us`) with the trace collector and returns its id.
  uint64_t BeginOp(DiskOp op, uint64_t lba, uint32_t sectors, uint32_t parts,
                   DoneFn done, SimTime issue_us);
  // The op gained `parts` more pieces (a fragment split in two).
  void AddOpParts(uint64_t op_id, uint32_t parts);
  // A retry or failover was spent on the op's behalf (no-op once it is done).
  void NoteOpRecovery(uint64_t op_id);
  // One piece ended now with `status`, kOk or kUnrecoverable. `leg` is the
  // disk op that ended it, or nullptr when none did; the collector is given
  // the leg of the piece that completes the op. The last piece counts the op
  // and fires its DoneFn with kUnrecoverable if any piece was unrecoverable.
  void FinishOpPart(uint64_t op_id, IoStatus status, const FinalLeg* leg);
  // The final leg of disk op `r`, whose queue entry arrived at
  // `entry_arrival`.
  static FinalLeg LegOf(const DiskOpResult& r, SimTime entry_arrival) {
    return FinalLeg{entry_arrival, r.start_us,     r.overhead_us,
                    r.seek_us,     r.rotational_us, r.transfer_us};
  }

 private:
  struct LogicalOp {
    DiskOp op = DiskOp::kRead;
    uint32_t parts_remaining = 0;
    IoStatus status = IoStatus::kOk;
    uint32_t recovery_attempts = 0;
    DoneFn done;
  };

  struct QueuedRebuild {
    SlotId slot;
    DoneFn done;
  };

  // Marks `slot` replaced and starts its pass.
  void StartRebuild(SlotId slot, DoneFn done);

  DriveSet drives_;
  // The active pass's slot and `done`, and the slots queued behind it.
  std::optional<SlotId> rebuilding_;
  DoneFn rebuild_done_;
  std::vector<QueuedRebuild> rebuild_queue_;
  std::unordered_map<uint64_t, LogicalOp> ops_;
  uint64_t next_op_id_ = 1;
  OpStats op_stats_;
};

// Publishes every FaultRecoveryStats counter under "fault.<field>".
void ExportFaultStats(const FaultRecoveryStats& stats, StatsRegistry* registry);

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_IO_ARRAY_BACKEND_H_
