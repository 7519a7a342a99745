// Runtime invariant-audit layer for the simulator stack.
//
// The biggest risk in an event-driven disk simulator is *silent* corruption:
// a mis-ordered event, a stale head position, or a replica map that drifts
// out of sync skews every latency number without failing a single test. The
// InvariantAuditor is a passive observer that components report to when a
// debug flag enables it (DriveSetOptions::auditor, or directly via
// Simulator::set_auditor / SimDisk::SetAuditor). It machine-checks, after
// every operation:
//
//   * event-time monotonicity — no event is scheduled in the past and the
//     simulated clock never runs backwards;
//   * spindle-phase / head-position consistency — a drive's true spindle
//     phase and rotation period are physical constants, the arm always parks
//     on a valid (cylinder, head), operations on one spindle never overlap,
//     and the reported service-time decomposition sums to the service time;
//   * scheduler-pick validity — a scheduler ranks a queue whose cached
//     candidate positions are current and returns an index inside the
//     queue and a replica LBA the picked entry actually offers;
//   * queue conservation — every per-drive queue entry follows
//     queued -> dispatched -> completed (or queued -> cancelled), with no
//     lost, duplicated, or resurrected requests;
//   * replica-set agreement — every fragment produced by the array layout
//     tiles the logical range exactly and carries Dm*Dr distinct,
//     in-bounds physical replicas with mirror copies on distinct disks;
//   * NVRAM-table / delayed-write consistency — every pending propagation
//     recorded in the NVRAM metadata table is owned by a live delayed queue
//     entry, and nothing lingers once the array reports idle;
//   * fault conservation — every disk sub-op that completes with a non-kOk
//     IoStatus, including queued work drained from (or enqueued on) a
//     failed drive as a kDiskFailed it never ran, must be resolved by the
//     controller: retried, failed over to another replica or a decode,
//     repaired by a rewrite, or surfaced to the submitter as
//     kUnrecoverable. Abandoning a fault is
//     legal only when its target disk is failed (the data has no future on
//     that drive). A fault that is none of these by quiescence time was
//     silently dropped — the worst failure mode a recovery path can have.
//
// On a violation the auditor calls its failure handler: by default the
// process aborts with a message carrying the operand values (like
// MIMDRAID_CHECK); tests install a recording handler to assert that seeded
// corruption is caught without dying.
//
// The auditor deliberately depends only on the util layer: hooks receive
// primitives and small POD structs so lower layers (sim, disk) can call it
// without inverting the library dependency order.
#ifndef MIMDRAID_SRC_SIM_AUDITOR_H_
#define MIMDRAID_SRC_SIM_AUDITOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/time.h"

namespace mimdraid {

// One physical copy of a fragment, as reported to the auditor.
struct AuditReplicaRef {
  uint32_t disk = 0;
  uint64_t lba = 0;
};

// One fragment of a logical request with its full replica set, mirror-major:
// replicas[m*dr + r] is rotational replica r of mirror copy m.
struct AuditFragment {
  uint64_t logical_lba = 0;
  uint32_t sectors = 0;
  std::vector<AuditReplicaRef> replicas;
};

// How a controller disposed of a failed disk sub-op (fault conservation).
enum class FaultResolution : uint8_t {
  kRetried,        // re-queued against the same target after backoff
  kFailedOver,  // re-aimed at another replica / mirror disk / decode set
  kRepaired,    // bad replica rewritten from a surviving copy
  kSurfaced,    // completed to the submitter as kUnrecoverable
  kAbandoned,   // dropped — legal only when the target disk is failed
};

// Everything a SimDisk knows about an operation at completion time.
struct DiskOpAudit {
  uint32_t disk = 0;
  bool is_write = false;
  uint64_t lba = 0;
  uint32_t sectors = 0;
  SimTime start_us;
  SimTime completion_us;
  // Ground-truth service decomposition (overhead includes pre+post).
  double overhead_us = 0.0;
  double seek_us = 0.0;
  double rotational_us = 0.0;
  double transfer_us = 0.0;
  // Post-op arm position and its geometry bounds.
  uint32_t head_cylinder = 0;
  uint32_t head_index = 0;
  uint32_t num_cylinders = 0;
  uint32_t num_heads = 0;
  // Physical constants of the drive; must never change between ops.
  double spindle_phase_us = 0.0;
  double rotation_us = 0.0;
};

class InvariantAuditor {
 public:
  using FailureHandler = std::function<void(const std::string& message)>;

  InvariantAuditor() = default;
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  // Replaces the abort-on-violation default. The handler receives the full
  // failure message; returning from it continues the run (used by tests to
  // assert the auditor fires on seeded corruption).
  void set_failure_handler(FailureHandler handler) {
    handler_ = std::move(handler);
  }

  uint64_t checks_run() const { return checks_run_; }
  uint64_t violations() const { return violations_; }
  const std::string& last_violation() const { return last_violation_; }

  // --- Simulator hooks ---
  void OnEventScheduled(SimTime now, SimTime at);
  void OnEventFired(SimTime now_before, SimTime at);

  // --- SimDisk hooks ---
  void OnDiskOpComplete(const DiskOpAudit& op);

  // --- Scheduler hooks ---
  // `stale_entries` counts queued entries whose cached candidate positions
  // did not match the drive's remap count when the pick began.
  void OnSchedulerPick(const std::string& scheduler_name, size_t queue_size,
                       size_t stale_entries, size_t picked_index,
                       BlockAddr chosen_lba,
                       const std::vector<BlockAddr>& candidates,
                       double predicted_service_us);

  // --- Array controller: queue conservation ---
  void OnEntryQueued(uint32_t disk, uint64_t entry_id, bool delayed);
  void OnEntryDispatched(uint32_t disk, uint64_t entry_id);
  void OnEntryCancelled(uint32_t disk, uint64_t entry_id);
  void OnEntryCompleted(uint32_t disk, uint64_t entry_id);

  // --- Array controller: replica-set agreement ---
  void OnArrayMap(uint64_t lba, uint32_t sectors, int dm, int dr,
                  uint32_t num_disks, uint64_t per_disk_physical_sectors,
                  const std::vector<AuditFragment>& fragments);

  // --- Array controller: NVRAM / delayed-write consistency ---
  void OnNvramPut(uint32_t disk, uint64_t lba, uint64_t owner_entry);
  void OnNvramErase(uint32_t disk, uint64_t lba);

  // --- Fault conservation ---
  // A disk sub-op (keyed by its queue entry id) completed with a failure
  // status, or was handed back unrun from a failed drive; exactly one
  // OnFaultResolved must follow (the DriveSet engine files the resolution
  // its policy returns).
  void OnIoFault(uint32_t disk, uint64_t entry_id);
  void OnFaultResolved(uint64_t entry_id, FaultResolution resolution,
                       bool target_disk_failed);
  size_t open_faults() const { return open_faults_.size(); }

  // A replacement drive was promoted into `disk`'s slot: its spindle phase
  // and rotation period are new physical constants.
  void OnDiskReplaced(uint32_t disk);

  // Terminal check, called when the controller claims quiescence: every
  // count the controller reports and every live object the auditor tracks
  // must be zero. `policy_records` counts the per-entry records a policy
  // still holds (the mirror's fragments and maintenance hooks, the erasure
  // controller's commands).
  void CheckQuiescent(size_t fg_queued, size_t delayed_queued,
                      size_t nvram_entries, size_t stale_sectors,
                      size_t inflight_writes, size_t parked_requests,
                      size_t policy_records);

 private:
  enum class EntryState { kQueued, kDispatched };

  struct EntryInfo {
    EntryState state = EntryState::kQueued;
    uint32_t disk = 0;
    bool delayed = false;
  };

  void Fail(const std::string& message);

  FailureHandler handler_;
  uint64_t checks_run_ = 0;
  uint64_t violations_ = 0;
  std::string last_violation_;

  // Live queue entries (erased on completion/cancellation, so memory stays
  // proportional to outstanding work, not run length).
  std::unordered_map<uint64_t, EntryInfo> entries_;
  size_t dispatched_count_ = 0;

  // Mirror of the controller's NVRAM table: key -> owning entry id.
  std::unordered_map<uint64_t, uint64_t> nvram_mirror_;

  // Failed sub-ops awaiting a resolution: entry id -> target disk.
  std::unordered_map<uint64_t, uint32_t> open_faults_;

  // Physical constants per disk, recorded on first completion.
  struct DiskConstants {
    double spindle_phase_us = 0.0;
    double rotation_us = 0.0;
    SimTime last_completion_us;
    bool seen = false;
  };
  std::unordered_map<uint32_t, DiskConstants> disk_constants_;

  static uint64_t NvramKey(uint32_t disk, uint64_t lba) {
    return (static_cast<uint64_t>(disk) << 48) | lba;
  }
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SIM_AUDITOR_H_
