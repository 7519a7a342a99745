#include "src/sim/auditor.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

namespace mimdraid {

namespace {

// The disk rounds its integer completion time to the nearest microsecond of
// the real-valued service sum, so the decomposition may disagree with the
// timestamps by up to half a microsecond (plus accumulated double rounding).
constexpr double kDecompositionToleranceUs = 1.0;

}  // namespace

// Counts one check; on failure builds the message lazily (the hooks sit on
// the simulator's hot path, so the passing case must not allocate).
#define AUDIT_EXPECT(cond, streamed)             \
  do {                                           \
    ++checks_run_;                               \
    if (!(cond)) [[unlikely]] {                  \
      std::ostringstream audit_os;               \
      audit_os << streamed; /* NOLINT */         \
      Fail(audit_os.str());                      \
    }                                            \
  } while (0)

void InvariantAuditor::Fail(const std::string& message) {
  ++violations_;
  last_violation_ = message;
  if (handler_) {
    handler_(message);
    return;
  }
  std::fprintf(stderr, "AUDIT failed: %s\n", message.c_str());
  std::abort();
}

void InvariantAuditor::OnEventScheduled(SimTime now, SimTime at) {
  AUDIT_EXPECT(at >= now,
               "event-time monotonicity: scheduled at " << at
                   << " which is before now " << now);
}

void InvariantAuditor::OnEventFired(SimTime now_before, SimTime at) {
  AUDIT_EXPECT(at >= now_before,
               "event-time monotonicity: event fires at " << at
                   << " but the clock already reads " << now_before);
}

void InvariantAuditor::OnDiskOpComplete(const DiskOpAudit& op) {
  AUDIT_EXPECT(op.completion_us >= op.start_us,
               "disk " << op.disk << ": completion " << op.completion_us
                       << " precedes start " << op.start_us);
  AUDIT_EXPECT(op.sectors > 0,
               "disk " << op.disk << ": zero-sector operation at lba "
                       << op.lba);

  // Head-position consistency: the arm must park on a real track.
  AUDIT_EXPECT(op.head_cylinder < op.num_cylinders,
               "disk " << op.disk << ": head cylinder " << op.head_cylinder
                       << " out of range (num_cylinders " << op.num_cylinders
                       << ")");
  AUDIT_EXPECT(op.head_index < op.num_heads,
               "disk " << op.disk << ": head index " << op.head_index
                       << " out of range (num_heads " << op.num_heads << ")");

  // Service-time decomposition must account for the whole service time.
  const double service = static_cast<double>((op.completion_us - op.start_us).us());
  const double sum =
      op.overhead_us + op.seek_us + op.rotational_us + op.transfer_us;
  AUDIT_EXPECT(std::abs(service - sum) <= kDecompositionToleranceUs,
               "disk " << op.disk << " [lba " << op.lba << " +" << op.sectors
                       << "]: service decomposition drift (timestamps say "
                       << service << "us vs components " << sum << "us)");
  AUDIT_EXPECT(op.overhead_us >= 0.0 && op.seek_us >= 0.0 &&
                   op.rotational_us >= 0.0 && op.transfer_us >= 0.0,
               "disk " << op.disk << ": negative service component (overhead "
                       << op.overhead_us << ", seek " << op.seek_us
                       << ", rotational " << op.rotational_us << ", transfer "
                       << op.transfer_us << ")");

  // Spindle-phase consistency: the true phase and rotation period are
  // physical constants of the drive; any drift means simulator state was
  // corrupted (e.g. a calibration estimate written through to ground truth).
  DiskConstants& c = disk_constants_[op.disk];
  if (!c.seen) {
    c.seen = true;
    c.spindle_phase_us = op.spindle_phase_us;
    c.rotation_us = op.rotation_us;
    c.last_completion_us = op.completion_us;
    AUDIT_EXPECT(op.rotation_us > 0.0,
                 "disk " << op.disk << ": non-positive rotation period "
                         << op.rotation_us);
    return;
  }
  AUDIT_EXPECT(op.spindle_phase_us == c.spindle_phase_us,
               "disk " << op.disk << ": true spindle phase drifted ("
                       << op.spindle_phase_us << " vs recorded "
                       << c.spindle_phase_us << ")");
  AUDIT_EXPECT(op.rotation_us == c.rotation_us,
               "disk " << op.disk << ": rotation period drifted ("
                       << op.rotation_us << " vs recorded " << c.rotation_us
                       << ")");
  // One spindle services one request at a time: this op must have started at
  // or after the previous completion.
  AUDIT_EXPECT(op.start_us >= c.last_completion_us,
               "disk " << op.disk << ": overlapping service (op starts at "
                       << op.start_us << " before previous completion "
                       << c.last_completion_us << ")");
  c.last_completion_us = op.completion_us;
}

void InvariantAuditor::OnSchedulerPick(const std::string& scheduler_name,
                                       size_t queue_size, size_t stale_entries,
                                       size_t index_faults, size_t picked_index,
                                       BlockAddr chosen_lba,
                                       const std::vector<BlockAddr>& candidates,
                                       double predicted_service_us) {
  AUDIT_EXPECT(queue_size > 0, scheduler_name << ": picked from an empty "
                                                 "queue");
  AUDIT_EXPECT(stale_entries == 0,
               scheduler_name << ": " << stale_entries << " of " << queue_size
                              << " queued entries carry positions derived "
                                 "from another layout or remap count (queue "
                                 "not synced before the pick)");
  AUDIT_EXPECT(index_faults == 0,
               scheduler_name << ": " << index_faults
                              << " faults in the queue's cylinder index (keys "
                                 "out of order, or not one key per "
                                 "candidate of the indexed window)");
  AUDIT_EXPECT(picked_index < queue_size,
               scheduler_name << ": pick index " << picked_index
                              << " out of range (queue size " << queue_size
                              << ")");
  bool found = false;
  for (BlockAddr cand : candidates) {
    if (cand == chosen_lba) {
      found = true;
      break;
    }
  }
  AUDIT_EXPECT(found, scheduler_name
                          << ": chosen lba " << chosen_lba
                          << " is not a candidate of the picked entry ("
                          << candidates.size() << " candidates)");
  AUDIT_EXPECT(predicted_service_us >= 0.0,
               scheduler_name << ": negative predicted service "
                              << predicted_service_us);
}

void InvariantAuditor::OnEntryQueued(uint32_t disk, uint64_t entry_id,
                                     bool delayed) {
  const bool inserted =
      entries_
          .try_emplace(entry_id, EntryInfo{EntryState::kQueued, disk, delayed})
          .second;
  AUDIT_EXPECT(inserted, "queue conservation: entry "
                             << entry_id << " queued twice (disk " << disk
                             << ")");
}

void InvariantAuditor::OnEntryDispatched(uint32_t disk, uint64_t entry_id) {
  auto it = entries_.find(entry_id);
  AUDIT_EXPECT(it != entries_.end(),
               "queue conservation: dispatch of unknown entry "
                   << entry_id << " on disk " << disk);
  if (it == entries_.end()) {
    return;
  }
  AUDIT_EXPECT(it->second.state == EntryState::kQueued,
               "queue conservation: entry " << entry_id
                                            << " dispatched while not queued");
  AUDIT_EXPECT(it->second.disk == disk,
               "queue conservation: entry "
                   << entry_id << " dispatched on disk " << disk
                   << " but was queued on disk " << it->second.disk);
  it->second.state = EntryState::kDispatched;
  ++dispatched_count_;
}

void InvariantAuditor::OnEntryCancelled(uint32_t disk, uint64_t entry_id) {
  auto it = entries_.find(entry_id);
  AUDIT_EXPECT(it != entries_.end(),
               "queue conservation: cancellation of unknown entry "
                   << entry_id << " on disk " << disk);
  if (it == entries_.end()) {
    return;
  }
  // Only still-queued entries can be cancelled; a dispatched request is
  // owned by the drive until its completion callback runs.
  AUDIT_EXPECT(it->second.state == EntryState::kQueued,
               "queue conservation: entry " << entry_id
                                            << " cancelled after dispatch");
  entries_.erase(it);
}

void InvariantAuditor::OnEntryCompleted(uint32_t disk, uint64_t entry_id) {
  auto it = entries_.find(entry_id);
  AUDIT_EXPECT(it != entries_.end(),
               "queue conservation: completion of unknown (lost or "
               "duplicated) entry "
                   << entry_id << " on disk " << disk);
  if (it == entries_.end()) {
    return;
  }
  AUDIT_EXPECT(it->second.state == EntryState::kDispatched,
               "queue conservation: entry "
                   << entry_id << " completed without being dispatched");
  if (it->second.state == EntryState::kDispatched) {
    --dispatched_count_;
  }
  entries_.erase(it);
}

void InvariantAuditor::OnArrayMap(uint64_t lba, uint32_t sectors, int dm,
                                  int dr, uint32_t num_disks,
                                  uint64_t per_disk_physical_sectors,
                                  const std::vector<AuditFragment>& fragments) {
  const size_t replicas_per_block =
      static_cast<size_t>(dm) * static_cast<size_t>(dr);

  AUDIT_EXPECT(!fragments.empty(), "replica map [lba "
                                       << lba << " +" << sectors
                                       << "]: empty fragment list");

  // Fragments must tile [lba, lba + sectors) exactly, in order.
  uint64_t expected_lba = lba;
  for (const AuditFragment& frag : fragments) {
    AUDIT_EXPECT(frag.sectors > 0, "replica map [lba "
                                       << lba << " +" << sectors
                                       << "]: zero-sector fragment at logical "
                                       << frag.logical_lba);
    AUDIT_EXPECT(frag.logical_lba == expected_lba,
                 "replica map [lba " << lba << " +" << sectors
                                     << "]: fragment gap/overlap (starts at "
                                     << frag.logical_lba << ", expected "
                                     << expected_lba << ")");
    expected_lba = frag.logical_lba + frag.sectors;

    AUDIT_EXPECT(frag.replicas.size() == replicas_per_block,
                 "replica map [lba " << lba << " +" << sectors
                                     << "]: fragment carries "
                                     << frag.replicas.size()
                                     << " replicas, expected Dm*Dr = "
                                     << replicas_per_block);
    if (frag.replicas.size() != replicas_per_block) {
      continue;
    }

    std::unordered_set<uint32_t> mirror_disks;
    std::unordered_set<uint64_t> physical;
    for (int m = 0; m < dm; ++m) {
      const uint32_t mirror_disk =
          frag.replicas[static_cast<size_t>(m) * static_cast<size_t>(dr)].disk;
      // All Dm mirror copies must live on distinct disks; losing one disk
      // must never lose two copies.
      AUDIT_EXPECT(mirror_disks.insert(mirror_disk).second,
                   "replica map [lba " << lba << " +" << sectors
                                       << "]: mirror copies share disk "
                                       << mirror_disk);
      for (int r = 0; r < dr; ++r) {
        const AuditReplicaRef& loc =
            frag.replicas[static_cast<size_t>(m) * static_cast<size_t>(dr) +
                          static_cast<size_t>(r)];
        AUDIT_EXPECT(loc.disk < num_disks,
                     "replica map [lba " << lba << " +" << sectors
                                         << "]: replica disk " << loc.disk
                                         << " out of range (num_disks "
                                         << num_disks << ")");
        // Rotational replicas of one mirror copy stay on that copy's disk.
        AUDIT_EXPECT(loc.disk == mirror_disk,
                     "replica map [lba "
                         << lba << " +" << sectors
                         << "]: rotational replica wandered to disk "
                         << loc.disk << " (mirror copy lives on disk "
                         << mirror_disk << ")");
        AUDIT_EXPECT(loc.lba + frag.sectors <= per_disk_physical_sectors,
                     "replica map [lba "
                         << lba << " +" << sectors << "]: replica [disk "
                         << loc.disk << " lba " << loc.lba << " +"
                         << frag.sectors << "] exceeds per-disk capacity "
                         << per_disk_physical_sectors);
        AUDIT_EXPECT(physical.insert(NvramKey(loc.disk, loc.lba)).second,
                     "replica map [lba "
                         << lba << " +" << sectors
                         << "]: duplicate physical replica [disk " << loc.disk
                         << " lba " << loc.lba << "]");
      }
    }
  }
  AUDIT_EXPECT(expected_lba == lba + sectors,
               "replica map [lba " << lba << " +" << sectors
                                   << "]: fragments cover "
                                   << (expected_lba - lba)
                                   << " sectors, expected " << sectors);
}

void InvariantAuditor::OnNvramPut(uint32_t disk, uint64_t lba,
                                  uint64_t owner_entry) {
  auto it = entries_.find(owner_entry);
  AUDIT_EXPECT(it != entries_.end() && it->second.delayed,
               "nvram consistency: table entry [disk "
                   << disk << " lba " << lba << "] owned by " << owner_entry
                   << " which is not a live delayed-write entry");
  nvram_mirror_[NvramKey(disk, lba)] = owner_entry;
}

void InvariantAuditor::OnNvramErase(uint32_t disk, uint64_t lba) {
  const size_t erased = nvram_mirror_.erase(NvramKey(disk, lba));
  AUDIT_EXPECT(erased == 1, "nvram consistency: erase of unknown table entry "
                            "[disk "
                                << disk << " lba " << lba << "]");
}

void InvariantAuditor::OnIoFault(uint32_t disk, uint64_t entry_id) {
  const bool inserted = open_faults_.try_emplace(entry_id, disk).second;
  AUDIT_EXPECT(inserted, "fault conservation: entry "
                             << entry_id << " reported faulted twice (disk "
                             << disk << ")");
}

void InvariantAuditor::OnFaultResolved(uint64_t entry_id,
                                       FaultResolution resolution,
                                       bool target_disk_failed) {
  auto it = open_faults_.find(entry_id);
  AUDIT_EXPECT(it != open_faults_.end(),
               "fault conservation: resolution for unknown fault (entry "
                   << entry_id << ", resolution "
                   << static_cast<int>(resolution) << ")");
  if (it == open_faults_.end()) {
    return;
  }
  AUDIT_EXPECT(resolution != FaultResolution::kAbandoned || target_disk_failed,
               "fault conservation: entry "
                   << entry_id << " (disk " << it->second
                   << ") abandoned while its target disk is still live");
  open_faults_.erase(it);
}

void InvariantAuditor::OnDiskReplaced(uint32_t disk) {
  // The slot now holds a physically different drive; forget the old spindle
  // constants so the replacement's phase/period are recorded fresh. The
  // last-completion watermark carries over: the slot's service timeline is
  // still serial (the old drive's final completion precedes promotion).
  auto it = disk_constants_.find(disk);
  if (it == disk_constants_.end()) {
    return;
  }
  const SimTime watermark = it->second.last_completion_us;
  it->second = DiskConstants{};
  it->second.last_completion_us = watermark;
  it->second.seen = false;
}

void InvariantAuditor::CheckQuiescent(size_t fg_queued, size_t delayed_queued,
                                      size_t nvram_entries,
                                      size_t stale_sectors,
                                      size_t inflight_writes,
                                      size_t parked_requests,
                                      size_t policy_records) {
  AUDIT_EXPECT(fg_queued == 0, "quiescence: " << fg_queued
                                              << " foreground entries still "
                                                 "queued");
  AUDIT_EXPECT(delayed_queued == 0, "quiescence: "
                                        << delayed_queued
                                        << " delayed entries still queued");
  AUDIT_EXPECT(nvram_entries == 0, "quiescence: "
                                       << nvram_entries
                                       << " NVRAM table entries still "
                                          "pending");
  AUDIT_EXPECT(stale_sectors == 0, "quiescence: " << stale_sectors
                                                  << " sectors still marked "
                                                     "stale");
  AUDIT_EXPECT(inflight_writes == 0,
               "quiescence: " << inflight_writes
                              << " logical sectors still marked "
                                 "write-in-flight");
  AUDIT_EXPECT(parked_requests == 0,
               "quiescence: " << parked_requests
                              << " reads still parked behind writes");
  AUDIT_EXPECT(policy_records == 0,
               "quiescence: " << policy_records
                              << " per-entry policy records still held");
  AUDIT_EXPECT(entries_.empty(), "quiescence: "
                                     << entries_.size()
                                     << " queue entries never completed "
                                        "(lost requests)");
  AUDIT_EXPECT(dispatched_count_ == 0,
               "quiescence: " << dispatched_count_
                              << " dispatched requests never completed");
  AUDIT_EXPECT(nvram_mirror_.empty(),
               "quiescence: auditor NVRAM mirror still holds "
                   << nvram_mirror_.size() << " entries");
  AUDIT_EXPECT(open_faults_.empty(),
               "fault conservation: " << open_faults_.size()
                                      << " failed sub-ops were never retried, "
                                         "failed over, repaired, or "
                                         "surfaced");
}

#undef AUDIT_EXPECT

}  // namespace mimdraid
