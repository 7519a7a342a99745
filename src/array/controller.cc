#include "src/array/controller.h"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {

ArrayController::ArrayController(Simulator* sim, std::vector<SimDisk*> disks,
                                 std::vector<AccessPredictor*> predictors,
                                 const ArrayLayout* layout,
                                 const ArrayControllerOptions& options)
    : ArrayBackend(sim, std::move(disks), std::move(predictors),
                   options.drives),
      sim_(sim),
      layout_(layout),
      options_(options),
      auditor_(options.drives.auditor),
      nvram_(options.drives.auditor) {
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK_EQ(drives().num_slots(), layout->num_disks());
  const size_t n = drives().num_slots();
  recalibration_events_.resize(n);
  if (options_.recalibration_interval_us > SimDuration(0)) {
    for (size_t i = 0; i < n; ++i) {
      ScheduleRecalibration(static_cast<uint32_t>(i));
    }
  }
  StartScrub();
}

ArrayController::~ArrayController() {
  for (EventId id : recalibration_events_) {
    if (id.valid()) {
      // The timer callback re-arms itself before returning, so a valid
      // handle always names a pending event and cancellation cannot miss.
      MIMDRAID_CHECK(sim_->Cancel(id));
    }
  }
}

void ArrayController::AuditQuiescent() const {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->CheckQuiescent(drives().TotalFgQueued(),
                           drives().TotalDelayedQueued(), nvram_.size(),
                           stale_.size(), inflight_.size(), parked_.size(),
                           frags_.size() + maintenance_.size());
}

void ArrayController::Submit(DiskOp op, uint64_t lba, uint32_t sectors,
                             DoneFn done) {
  SubmitInternal(op, lba, sectors, std::move(done), sim_->Now());
}

void ArrayController::SubmitInternal(DiskOp op, uint64_t lba, uint32_t sectors,
                                     DoneFn done, SimTime issue_us) {
  MIMDRAID_CHECK_GT(sectors, 0u);
  // Read-after-write ordering: a read of data with an in-flight foreground
  // write waits for the write (all replicas are potentially stale until one
  // lands).
  if (op == DiskOp::kRead && inflight_.ZeroPrefix(lba, sectors) < sectors) {
    ++stats_.parked_reads;
    parked_.push_back(ParkedRequest{op, lba, sectors, std::move(done), issue_us});
    return;
  }

  std::vector<ArrayFragment> fragments = layout_->Map(lba, sectors);
  if (auditor_ != nullptr) {
    AuditMappedFragments(lba, sectors, fragments);
  }
  // Parked reads are recorded only on resubmission (the early return above),
  // with their original issue time, so parked waiting shows up in queue_us'
  // complement: the e2e latency counts it, the final leg does not.
  const uint64_t op_id =
      BeginOp(op, lba, sectors, static_cast<uint32_t>(fragments.size()),
              std::move(done), issue_us);

  if (op == DiskOp::kWrite) {
    inflight_.Add(lba, sectors, +1);
  }

  for (ArrayFragment& f : fragments) {
    const uint64_t frag_key = next_frag_key_++;
    FragState& frag = frags_[frag_key];
    frag.op_id = op_id;
    frag.logical_lba = f.logical_lba;
    frag.sectors = f.sectors;
    frag.op = op;
    frag.replicas = std::move(f.replicas);
    if (op == DiskOp::kRead) {
      SubmitReadFragment(frag, frag_key);
    } else {
      SubmitWriteFragment(frag, frag_key);
    }
  }
}

bool ArrayController::SubmitReadFragment(FragState& frag, uint64_t frag_key) {
  const int dr = layout_->aspect().dr;
  const int dm = layout_->aspect().dm;
  frag.entries_remaining = 1;

  // Overlapping unaligned writes can leave every replica of this range
  // partially stale even though every *sector* has a clean copy somewhere.
  // Shrink the fragment to the longest prefix some replica covers cleanly and
  // resubmit the tail as its own fragment.
  uint32_t best_prefix = 0;
  for (const ReplicaLocation& loc : frag.replicas) {
    const uint64_t clean =
        stale_.ZeroPrefix(ReplicaKey(loc.disk, loc.lba), frag.sectors);
    best_prefix = std::max(best_prefix, static_cast<uint32_t>(clean));
    if (best_prefix == frag.sectors) {
      break;
    }
  }
  // Partially overlapping unaligned writes can (rarely) leave every replica
  // of a sector carrying a stale marker even though the newest data has in
  // fact been written (the marker belongs to an older, superseded
  // propagation). Timing-wise any replica is equivalent; serve from the full
  // set and account for it.
  const bool ignore_stale = best_prefix == 0;
  if (ignore_stale) {
    ++stats_.stale_fallback_reads;
    best_prefix = frag.sectors;
  }
  if (best_prefix < frag.sectors) {
    const uint64_t tail_key = next_frag_key_++;
    FragState& tail = frags_[tail_key];
    tail.op_id = frag.op_id;
    tail.logical_lba = frag.logical_lba + best_prefix;
    tail.sectors = frag.sectors - best_prefix;
    tail.op = frag.op;
    tail.replicas = frag.replicas;
    tail.attempts = frag.attempts;
    tail.bad_replicas = frag.bad_replicas;
    for (ReplicaLocation& loc : tail.replicas) {
      loc.lba += best_prefix;
    }
    for (ReplicaLocation& loc : tail.bad_replicas) {
      loc.lba += best_prefix;
    }
    AddOpParts(frag.op_id, 1);
    // `frag` may have been invalidated by the map insertion above.
    FragState& head = frags_[frag_key];
    head.sectors = best_prefix;
    const bool head_ok = SubmitReadFragment(head, frag_key);
    const bool tail_ok = SubmitReadFragment(frags_[tail_key], tail_key);
    return head_ok && tail_ok;
  }

  // Per-disk candidate sets, stale replicas excluded.
  struct DiskCandidates {
    uint32_t disk;
    std::vector<QueueCandidate> replicas;
  };
  std::vector<DiskCandidates> candidates;
  for (int m = 0; m < dm; ++m) {
    DiskCandidates dc;
    dc.disk = frag.replicas[static_cast<size_t>(m) * dr].disk;
    if (drives().failed(SlotId(dc.disk))) {
      continue;
    }
    for (int r = 0; r < dr; ++r) {
      const ReplicaLocation& loc = frag.replicas[static_cast<size_t>(m) * dr + r];
      bool known_bad = false;
      for (const ReplicaLocation& bad : frag.bad_replicas) {
        if (bad.disk == loc.disk && bad.lba == loc.lba) {
          known_bad = true;
          break;
        }
      }
      if (known_bad) {
        continue;
      }
      if (ignore_stale ||
          stale_.ZeroPrefix(ReplicaKey(loc.disk, loc.lba), frag.sectors) ==
              frag.sectors) {
        dc.replicas.push_back(QueueCandidate(BlockAddr(loc.lba)));
      }
    }
    if (!dc.replicas.empty()) {
      candidates.push_back(std::move(dc));
    }
  }
  if (candidates.empty()) {
    // Every replica is on a failed disk or known bad: redundancy exhausted.
    CompleteFragmentUnrecoverable(frag_key, frag);
    return false;
  }

  // Mirror heuristic (Section 3.3): if a holding disk is idle, send the
  // request to the idle head closest to a copy; otherwise duplicate the
  // request into every holder's queue and cancel the losers on dispatch.
  std::vector<const DiskCandidates*> targets;
  if (candidates.size() > 1) {
    const DiskCandidates* best_idle = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const DiskCandidates& dc : candidates) {
      if (drives().disk(SlotId(dc.disk))->busy() || !drives().fg(SlotId(dc.disk)).empty()) {
        continue;
      }
      for (const QueueCandidate& cand : dc.replicas) {
        const AccessPlan plan = drives().predictor(SlotId(dc.disk))->Predict(
            sim_->Now(), cand.lba, frag.sectors, /*is_write=*/false);
        const double cost = drives().predictor(SlotId(dc.disk))->EffectiveServiceUs(plan);
        if (cost < best_cost) {
          best_cost = cost;
          best_idle = &dc;
        }
      }
    }
    if (best_idle != nullptr) {
      targets.push_back(best_idle);
    } else {
      for (const DiskCandidates& dc : candidates) {
        targets.push_back(&dc);
      }
    }
  } else {
    targets.push_back(&candidates.front());
  }

  for (const DiskCandidates* dc : targets) {
    QueuedRequest entry;
    entry.op = DiskOp::kRead;
    entry.sectors = frag.sectors;
    entry.candidates = dc->replicas;
    entry.tag = frag_key;
    frag.queued.emplace_back(
        dc->disk, drives().EnqueueFg(SlotId(dc->disk), std::move(entry)));
  }
  // Dispatch after all duplicates are queued so cancellation state is
  // complete before the first pick.
  for (const DiskCandidates* dc : targets) {
    drives().MaybeDispatch(SlotId(dc->disk));
  }
  return true;
}

bool ArrayController::SubmitWriteFragment(FragState& frag, uint64_t frag_key) {
  const int dr = layout_->aspect().dr;
  const int dm = layout_->aspect().dm;

  if (options_.foreground_write_propagation) {
    // Every copy is written synchronously: one single-candidate entry per
    // replica; the fragment completes when all land.
    uint32_t live = 0;
    for (const ReplicaLocation& loc : frag.replicas) {
      if (!drives().failed(SlotId(loc.disk))) {
        ++live;
      }
    }
    if (live == 0) {
      // Every copy's disk is gone: the write has nowhere durable to land.
      CompleteFragmentUnrecoverable(frag_key, frag);
      return false;
    }
    frag.entries_remaining = live;
    std::vector<uint32_t> touched;
    for (const ReplicaLocation& loc : frag.replicas) {
      if (drives().failed(SlotId(loc.disk))) {
        continue;
      }
      QueuedRequest entry;
      entry.op = DiskOp::kWrite;
      entry.sectors = frag.sectors;
      entry.candidates = {QueueCandidate(BlockAddr(loc.lba))};
      entry.tag = frag_key;
      drives().EnqueueFg(SlotId(loc.disk), std::move(entry));
      touched.push_back(loc.disk);
    }
    for (uint32_t d : touched) {
      drives().MaybeDispatch(SlotId(d));
    }
    return true;
  }

  // Background propagation: the first copy is scheduled like a read (any
  // mirror disk, any rotational replica); the rest become delayed writes once
  // the winner is known.
  frag.entries_remaining = 1;
  std::vector<uint32_t> touched;
  for (int m = 0; m < dm; ++m) {
    const uint32_t disk = frag.replicas[static_cast<size_t>(m) * dr].disk;
    if (drives().failed(SlotId(disk))) {
      continue;
    }
    QueuedRequest entry;
    entry.op = DiskOp::kWrite;
    entry.sectors = frag.sectors;
    entry.tag = frag_key;
    for (int r = 0; r < dr; ++r) {
      entry.candidates.push_back(QueueCandidate(
          BlockAddr(frag.replicas[static_cast<size_t>(m) * dr + r].lba)));
    }
    frag.queued.emplace_back(disk,
                             drives().EnqueueFg(SlotId(disk), std::move(entry)));
    touched.push_back(disk);
  }
  if (touched.empty()) {
    CompleteFragmentUnrecoverable(frag_key, frag);
    return false;
  }
  for (uint32_t d : touched) {
    drives().MaybeDispatch(SlotId(d));
  }
  return true;
}

void ArrayController::AuditMappedFragments(
    uint64_t lba, uint32_t sectors,
    const std::vector<ArrayFragment>& fragments) const {
  std::vector<AuditFragment> audit_frags;
  audit_frags.reserve(fragments.size());
  for (const ArrayFragment& f : fragments) {
    AuditFragment af;
    af.logical_lba = f.logical_lba;
    af.sectors = f.sectors;
    af.replicas.reserve(f.replicas.size());
    for (const ReplicaLocation& loc : f.replicas) {
      af.replicas.push_back(AuditReplicaRef{loc.disk, loc.lba});
    }
    audit_frags.push_back(std::move(af));
  }
  auditor_->OnArrayMap(lba, sectors, layout_->aspect().dm,
                       layout_->aspect().dr, layout_->num_disks(),
                       drives().num_slots() == 0
                           ? 0
                           : drives().disk(SlotId(0))->num_sectors(),
                       audit_frags);
}

void ArrayController::OnEntryDispatched(SlotId slot,
                                        const QueuedRequest& entry) {
  if (entry.delayed) {
    nvram_.MarkDispatched(slot.value(), entry.primary().value(), entry.id);
    return;
  }
  if (entry.tag == 0) {
    return;  // a maintenance entry
  }
  auto it = frags_.find(entry.tag);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  for (const auto& [disk, entry_id] : frag.queued) {
    if ((disk != slot.value() || entry_id != entry.id) &&
        drives().Cancel(SlotId(disk), entry_id)) {
      ++stats_.read_duplicates_cancelled;
    }
  }
  frag.queued.clear();
}

std::optional<FaultResolution> ArrayController::OnEntryComplete(
    SlotId slot, const QueuedRequest& entry, BlockAddr chosen_addr,
    const DiskOpResult& result) {
  const uint32_t disk = slot.value();
  const uint64_t chosen_lba = chosen_addr.value();
  // The engine has already reported the entry to the auditor and, for a
  // failure, opened the fault record (and, for one the drive ran, run the
  // fault counters, possibly auto-failing the slot). Only the mirror
  // policy's bookkeeping runs here; the engine files the resolution
  // returned for a failure.
  if (auto it = maintenance_.find(entry.id); it != maintenance_.end()) {
    MaintenanceHook hook = std::move(it->second);
    maintenance_.erase(it);
    const FaultResolution resolution = hook(result);
    return result.ok() ? std::nullopt : std::optional(resolution);
  }
  if (entry.delayed) {
    if (!result.ok()) {
      return HandleDelayedFailure(disk, entry, chosen_lba);
    }
    // Background propagation landed: the replica is now clean — unless a
    // newer propagation to the same location was queued while this one was
    // in flight (the index then points at the newer entry).
    if (nvram_.EraseIfOwner(disk, chosen_lba, entry.id)) {
      stale_.Set(ReplicaKey(disk, chosen_lba), entry.sectors, 0);
    }
    ++stats_.delayed_writes_completed;
    return std::nullopt;
  }
  if (!result.ok()) {
    // Only a drained duplicate can still have siblings queued (dispatch
    // cancels them): one on a live disk carries the fragment on.
    auto it = frags_.find(entry.tag);
    MIMDRAID_CHECK(it != frags_.end());
    std::erase(it->second.queued, std::pair(disk, entry.id));
    if (!it->second.queued.empty()) {
      return FaultResolution::kAbandoned;
    }
    return entry.op == DiskOp::kRead
               ? HandleReadFailure(disk, entry, chosen_lba, result)
               : HandleWriteFailure(disk, entry, chosen_lba);
  }

  auto it = frags_.find(entry.tag);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  MIMDRAID_CHECK_GT(frag.entries_remaining, 0u);
  if (frag.op == DiskOp::kWrite) {
    ++frag.successes;
  }
  if (--frag.entries_remaining == 0) {
    const FinalLeg leg = LegOf(result, entry.arrival_us);
    CompleteFragment(entry.tag, frag, disk, chosen_lba, &leg);
  }
  return std::nullopt;
}

void ArrayController::CompleteFragment(uint64_t frag_key, FragState& frag,
                                       uint32_t chosen_disk,
                                       uint64_t chosen_lba,
                                       const FinalLeg* leg) {
  const uint64_t op_id = frag.op_id;
  const DiskOp op = frag.op;
  const IoStatus frag_status = frag.status;
  if (op == DiskOp::kWrite) {
    if (!options_.foreground_write_propagation &&
        frag_status == IoStatus::kOk) {
      // The winner's copy is fresh; every other replica becomes a pending
      // background propagation. A previously pending propagation to the
      // winner's location is superseded by this write, and any stale markers
      // on the just-written sectors (from older, partially overlapping
      // propagations) are cleared.
      CancelPendingDelayed(chosen_disk, chosen_lba);
      stale_.Set(ReplicaKey(chosen_disk, chosen_lba), frag.sectors, 0);
      for (const ReplicaLocation& loc : frag.replicas) {
        if ((loc.disk == chosen_disk && loc.lba == chosen_lba) ||
            drives().failed(SlotId(loc.disk))) {
          continue;
        }
        AddDelayedWrite(loc.disk, loc.lba, frag.sectors);
      }
      EnforceDelayedTableLimit();
    }
    inflight_.Add(frag.logical_lba, frag.sectors, -1);
  }
  if (op == DiskOp::kRead && frag_status == IoStatus::kOk &&
      !frag.bad_replicas.empty()) {
    // Repair by rewrite: each replica that returned a media error is
    // rewritten with the data just served from a surviving copy; the drive's
    // firmware remaps the latent sector on write, clearing the error.
    for (const ReplicaLocation& bad : frag.bad_replicas) {
      if (drives().failed(SlotId(bad.disk))) {
        continue;
      }
      ++fstats().repairs_queued;
      AddDelayedWrite(bad.disk, bad.lba, frag.sectors);
    }
    EnforceDelayedTableLimit();
  }

  frags_.erase(frag_key);
  FinishOpPart(op_id, frag_status, leg);
  if (op == DiskOp::kWrite) {
    WakeParked();
  }
}

void ArrayController::CompleteFragmentUnrecoverable(uint64_t frag_key,
                                                    FragState& frag) {
  frag.status = IoStatus::kUnrecoverable;
  CompleteFragment(frag_key, frag, /*chosen_disk=*/0, /*chosen_lba=*/0);
}

// --- Fault recovery -------------------------------------------------------

FaultResolution ArrayController::HandleReadFailure(uint32_t disk,
                                                   const QueuedRequest& entry,
                                                   uint64_t chosen_lba,
                                                   const DiskOpResult& result) {
  auto it = frags_.find(entry.tag);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  NoteOpRecovery(frag.op_id);

  // A timeout says nothing about the media; retry in place (bounded, with
  // backoff) before writing the path off.
  if (result.status == IoStatus::kTimeout && !drives().failed(SlotId(disk)) &&
      frag.attempts + 1 < kMaxRecoveryAttempts) {
    ++frag.attempts;
    ++fstats().retries_issued;
    const uint64_t frag_key = entry.tag;
    drives().ScheduleRecovery(frag.attempts, [this, frag_key]() {
      auto fit = frags_.find(frag_key);
      if (fit == frags_.end()) {
        return;
      }
      SubmitReadFragment(fit->second, frag_key);
    });
    return FaultResolution::kRetried;
  }

  if (result.status == IoStatus::kMediaError) {
    // That specific replica is bad: never read it again for this fragment,
    // and rewrite it once a clean copy has been served (CompleteFragment).
    frag.bad_replicas.push_back(ReplicaLocation{disk, chosen_lba});
  } else if (result.status == IoStatus::kTimeout && !drives().failed(SlotId(disk))) {
    // Retries exhausted: treat the whole path as suspect for this fragment.
    for (const ReplicaLocation& loc : frag.replicas) {
      if (loc.disk == disk) {
        frag.bad_replicas.push_back(loc);
      }
    }
  }
  // kDiskFailed needs no bookkeeping: the engine's failed flag excludes the
  // disk from candidate sets.

  ++fstats().failovers;
  // Without a live replica the fragment completes as kUnrecoverable.
  return SubmitReadFragment(frag, entry.tag) ? FaultResolution::kFailedOver
                                             : FaultResolution::kSurfaced;
}

FaultResolution ArrayController::HandleWriteFailure(uint32_t disk,
                                                    const QueuedRequest& entry,
                                                    uint64_t chosen_lba) {
  auto it = frags_.find(entry.tag);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  NoteOpRecovery(frag.op_id);
  const uint64_t frag_key = entry.tag;

  if (!options_.foreground_write_propagation) {
    // First-copy write: duplicates were cancelled at dispatch, so this entry
    // carried the fragment alone.
    if (drives().failed(SlotId(disk))) {
      ++fstats().failovers;
      return SubmitWriteFragment(frag, frag_key) ? FaultResolution::kFailedOver
                                                 : FaultResolution::kSurfaced;
    }
    // Transient failure on a live disk: retry without an attempt bound — the
    // data exists nowhere else yet, so giving up is not an option until the
    // disk itself is declared dead.
    ++frag.attempts;
    ++fstats().retries_issued;
    drives().ScheduleRecovery(frag.attempts, [this, frag_key]() {
      auto fit = frags_.find(frag_key);
      if (fit == frags_.end()) {
        return;
      }
      SubmitWriteFragment(fit->second, frag_key);
    });
    return FaultResolution::kRetried;
  }

  // Foreground propagation: each entry is one replica.
  if (drives().failed(SlotId(disk))) {
    // This copy is lost; surviving copies carry the fragment. If none
    // succeeded by the time all entries account, the write is unrecoverable.
    LoseWriteReplica(frag_key);
    return FaultResolution::kAbandoned;
  }
  QueuedRequest retry;
  retry.op = DiskOp::kWrite;
  retry.sectors = entry.sectors;
  retry.candidates = {QueueCandidate(BlockAddr(chosen_lba))};
  retry.tag = frag_key;
  retry.attempts = entry.attempts + 1;
  ++fstats().retries_issued;
  const uint32_t attempts = retry.attempts;
  drives().ScheduleRecovery(
      attempts, [this, disk, retry = std::move(retry)]() mutable {
        if (drives().failed(SlotId(disk))) {
          LoseWriteReplica(retry.tag);
          return;
        }
        drives().EnqueueFg(SlotId(disk), std::move(retry));
        drives().MaybeDispatch(SlotId(disk));
      });
  return FaultResolution::kRetried;
}

void ArrayController::LoseWriteReplica(uint64_t frag_key) {
  auto it = frags_.find(frag_key);
  MIMDRAID_CHECK(it != frags_.end());
  FragState& frag = it->second;
  MIMDRAID_CHECK_GT(frag.entries_remaining, 0u);
  if (--frag.entries_remaining == 0) {
    if (frag.successes == 0) {
      frag.status = IoStatus::kUnrecoverable;
    }
    CompleteFragment(frag_key, frag, /*chosen_disk=*/0, /*chosen_lba=*/0);
  }
}

FaultResolution ArrayController::HandleDelayedFailure(
    uint32_t disk, const QueuedRequest& entry, uint64_t chosen_lba) {
  if (drives().failed(SlotId(disk))) {
    // The propagation (or repair rewrite) has no future on a dead drive:
    // drop its NVRAM record and stale markers.
    nvram_.EraseIfOwner(disk, chosen_lba, entry.id);
    stale_.Set(ReplicaKey(disk, chosen_lba), entry.sectors, 0);
    ++fstats().propagations_abandoned;
    return FaultResolution::kAbandoned;
  }
  const NvramTable::Record* record = nvram_.Find(disk, chosen_lba);
  if (record == nullptr || record->owner != entry.id) {
    // A newer write superseded this propagation while it was in flight; the
    // live owner entry will rewrite the location with fresher data.
    return FaultResolution::kRetried;
  }
  // A fresh retry entry takes the propagation over after the backoff. Until
  // then the failed entry keeps its NVRAM record and the stale markers stay:
  // the backlog is the only durable record of this data, so a crash during
  // the backoff must still find it. No attempt bound.
  ++fstats().retries_issued;
  const uint64_t failed_id = entry.id;
  const uint32_t attempts = entry.attempts + 1;
  const uint32_t sectors = entry.sectors;
  drives().ScheduleRecovery(
      attempts, [this, disk, chosen_lba, sectors, attempts, failed_id]() {
        if (!nvram_.EraseIfOwner(disk, chosen_lba, failed_id)) {
          return;  // superseded during the backoff; the new owner writes it
        }
        if (drives().failed(SlotId(disk))) {
          stale_.Set(ReplicaKey(disk, chosen_lba), sectors, 0);
          ++fstats().propagations_abandoned;
          return;
        }
        AddDelayedWrite(disk, chosen_lba, sectors, attempts);
      });
  return FaultResolution::kRetried;
}

bool ArrayController::SparePromotionAllowed(SlotId slot) {
  (void)slot;
  // An SR-Array column (Dm == 1) has nothing to rebuild a spare from.
  return layout_->aspect().dm >= 2;
}

uint64_t ArrayController::UsedSpanSectors(SlotId slot) const {
  const uint32_t group =
      slot.value() / static_cast<uint32_t>(layout_->aspect().dm);
  return layout_->placement_for(slot.value())
      .PhysicalSpanSectors(layout_->column_sectors(group));
}

// --- Background scrubbing -------------------------------------------------

void ArrayController::ScrubStep() {
  const uint64_t dataset = layout_->dataset_sectors();
  if (dataset == 0) {
    return;
  }
  if (scrub_cursor_ >= dataset) {
    scrub_cursor_ = 0;
    drives().EndScrubSweep();
  }
  const uint32_t span = static_cast<uint32_t>(std::min<uint64_t>(
      layout_->stripe_unit_sectors(), dataset - scrub_cursor_));
  for (const ArrayFragment& f : layout_->Map(scrub_cursor_, span)) {
    for (const ReplicaLocation& loc : f.replicas) {
      const bool live = !drives().failed(SlotId(loc.disk));
      drives().NoteScrubUnit(f.sectors, live);
      if (!live) {
        continue;
      }
      QueuedRequest e;
      e.op = DiskOp::kRead;
      e.sectors = f.sectors;
      e.candidates = {QueueCandidate(BlockAddr(loc.lba))};
      const uint32_t d = loc.disk;
      const uint64_t id = drives().EnqueueDelayed(SlotId(d), std::move(e));
      maintenance_[id] = [this, d, lba = loc.lba, sectors = f.sectors](
                             const DiskOpResult& r) {
        if (r.status == IoStatus::kDiskFailed) {
          // A dead drive read nothing. The fail-stop this read detected may
          // already have promoted a spare into the slot.
          return drives().failed(SlotId(d)) ? FaultResolution::kAbandoned
                                            : FaultResolution::kSurfaced;
        }
        // The read covered its sectors even when it surfaced a media error:
        // the sweep's job is discovery, and discovery is what happened.
        ++fstats().scrub_reads;
        fstats().scrub_sectors_read += sectors;
        if (r.status == IoStatus::kMediaError && !drives().failed(SlotId(d))) {
          // Latent sector error caught by the sweep: rewrite the replica with
          // the logically equivalent data the scrubber reads from its
          // siblings in the same pass; the drive remaps the sector on write.
          ++fstats().scrub_repairs;
          ++fstats().repairs_queued;
          AddDelayedWrite(d, lba, sectors);
          return FaultResolution::kRepaired;
        }
        // Transient noise on a verification read: the next sweep revisits
        // the chunk, so the observation is surfaced (counted) and dropped.
        return drives().failed(SlotId(d)) ? FaultResolution::kAbandoned
                                          : FaultResolution::kSurfaced;
      };
      drives().MaybeDispatch(SlotId(d));
    }
  }
  scrub_cursor_ += span;
}

void ArrayController::AddDelayedWrite(uint32_t disk, uint64_t lba,
                                      uint32_t sectors, uint32_t attempts) {
  if (const NvramTable::Record* record = nvram_.Find(disk, lba)) {
    ++stats_.delayed_writes_discarded;
    // If the superseded entry is still queued, it simply carries the newer
    // data ("data dies young", Section 3.4) — nothing more to do. If it is
    // already in flight, a fresh propagation takes its record over.
    if (!record->dispatched) {
      return;
    }
  }
  QueuedRequest entry;
  entry.op = DiskOp::kWrite;
  entry.sectors = sectors;
  entry.candidates = {QueueCandidate(BlockAddr(lba))};
  entry.delayed = true;
  entry.attempts = attempts;
  // Queue registration precedes the table insert so the auditor sees the
  // NVRAM entry owned by an already-live delayed entry.
  nvram_.Put(NvramEntry{disk, lba, sectors},
             drives().EnqueueDelayed(SlotId(disk), std::move(entry)));
  stale_.Set(ReplicaKey(disk, lba), sectors, 1);
  drives().MaybeDispatch(SlotId(disk));
}

void ArrayController::CancelPendingDelayed(uint32_t disk, uint64_t lba) {
  const NvramTable::Record* record = nvram_.Find(disk, lba);
  if (record == nullptr) {
    return;
  }
  ++stats_.delayed_writes_discarded;
  // A dispatched owner completes and clears its own state. A queued one sits
  // in the delayed queue or (if forced out) the FG queue.
  if (record->dispatched) {
    return;
  }
  MIMDRAID_CHECK(drives().Cancel(SlotId(disk), record->owner));
  const uint32_t sectors = record->entry.sectors;
  nvram_.Erase(disk, lba);
  stale_.Set(ReplicaKey(disk, lba), sectors, 0);
}

void ArrayController::EnforceDelayedTableLimit() {
  while (nvram_.size() > options_.delayed_table_limit) {
    // Force the oldest still-queued delayed write into its FG queue.
    uint32_t best_disk = 0;
    uint64_t best_id = UINT64_MAX;
    for (uint32_t d = 0; d < drives().num_slots(); ++d) {
      const std::span<const QueuedRequest> delayed = drives().delayed(SlotId(d));
      if (!delayed.empty() && delayed.front().id < best_id) {
        best_id = delayed.front().id;
        best_disk = d;
      }
    }
    if (best_id == UINT64_MAX) {
      return;  // everything pending is already in flight or forced
    }
    drives().ForceOutDelayed(SlotId(best_disk));
    ++stats_.delayed_writes_forced;
    drives().MaybeDispatch(SlotId(best_disk));
  }
}

void ArrayController::RestorePropagations(
    const std::vector<NvramEntry>& entries) {
  for (const NvramEntry& e : entries) {
    MIMDRAID_CHECK_LT(e.disk, drives().num_slots());
    AddDelayedWrite(e.disk, e.lba, e.sectors);
  }
  EnforceDelayedTableLimit();
}

void ArrayController::WakeParked() {
  if (parked_.empty()) {
    return;
  }
  std::vector<ParkedRequest> still_parked;
  std::vector<ParkedRequest> ready;
  for (ParkedRequest& p : parked_) {
    if (inflight_.ZeroPrefix(p.lba, p.sectors) < p.sectors) {
      still_parked.push_back(std::move(p));
    } else {
      ready.push_back(std::move(p));
    }
  }
  parked_ = std::move(still_parked);
  for (ParkedRequest& p : ready) {
    SubmitInternal(p.op, p.lba, p.sectors, std::move(p.done), p.issue_us);
  }
}

bool ArrayController::FailDisk(SlotId slot) {
  const uint32_t disk = slot.value();
  MIMDRAID_CHECK_LT(disk, drives().num_slots());
  MIMDRAID_CHECK(!drives().failed(SlotId(disk)));
  MIMDRAID_CHECK(!drives().disk(SlotId(disk))->busy());
  MIMDRAID_CHECK(drives().fg(SlotId(disk)).empty());
  if (layout_->aspect().dm < 2) {
    // An SR-Array/stripe column has no cross-disk copy: losing the disk
    // loses data (the paper's Section 2.5 reliability tradeoff).
    return false;
  }
  // Pending propagations to the failed disk are abandoned by the drain.
  drives().MarkFailed(SlotId(disk));
  return true;
}

void ArrayController::StartRebuildPass(SlotId slot) {
  MIMDRAID_CHECK_GE(layout_->aspect().dm, 2);
  RebuildNextFragment(slot.value(), 0);
}

void ArrayController::RebuildNextFragment(uint32_t disk, uint64_t next_lba) {
  // Stream the dataset fragment by fragment; for each fragment with replicas
  // on `disk`, read a surviving copy and rewrite this disk's copies. The copy
  // traffic rides the delayed queues, yielding to foreground work.
  if (drives().failed(SlotId(disk))) {
    // The replacement itself died mid-rebuild; abort the pass. A Rebuild
    // of its slot since then waits in the queue and starts afresh.
    FinishRebuild(IoStatus::kDiskFailed);
    return;
  }
  const uint64_t dataset = layout_->dataset_sectors();
  uint64_t lba = next_lba;
  while (lba < dataset) {
    const uint32_t span = static_cast<uint32_t>(
        std::min<uint64_t>(layout_->stripe_unit_sectors(), dataset - lba));
    const std::vector<ArrayFragment> frags = layout_->Map(lba, span);
    for (const ArrayFragment& f : frags) {
      std::vector<ReplicaLocation> targets;
      const ReplicaLocation* source = nullptr;
      for (const ReplicaLocation& loc : f.replicas) {
        if (loc.disk == disk) {
          targets.push_back(loc);
        } else if (source == nullptr && !drives().failed(SlotId(loc.disk)) &&
                   !bad_sources_.contains(ReplicaKey(loc.disk, loc.lba))) {
          source = &loc;
        }
      }
      if (targets.empty()) {
        continue;
      }
      if (source == nullptr) {
        // Every surviving copy is failed or known bad: this fragment cannot
        // be re-populated. Count it and keep rebuilding the rest.
        ++fstats().rebuild_fragments_lost;
        continue;
      }
      const uint64_t frag_start = f.logical_lba;
      const uint64_t resume = f.logical_lba + f.sectors;
      const uint32_t len = f.sectors;
      const uint32_t source_disk = source->disk;
      const uint64_t source_lba = source->lba;

      QueuedRequest read_entry;
      read_entry.op = DiskOp::kRead;
      read_entry.sectors = len;
      read_entry.candidates = {QueueCandidate(BlockAddr(source_lba))};
      const uint64_t id =
          drives().EnqueueDelayed(SlotId(source_disk), std::move(read_entry));
      maintenance_[id] =
          [this, disk, frag_start, resume, targets, len, source_disk,
           source_lba](const DiskOpResult& r) {
            if (r.status != IoStatus::kOk) {
              if (r.status == IoStatus::kMediaError) {
                // The source replica is bad: exclude it from future sourcing
                // and rewrite it from whichever copy the restart picks.
                bad_sources_.insert(ReplicaKey(source_disk, source_lba));
                if (!drives().failed(SlotId(source_disk))) {
                  ++fstats().repairs_queued;
                  AddDelayedWrite(source_disk, source_lba, len);
                }
              }
              ++fstats().failovers;
              RebuildNextFragment(disk, frag_start);
              return FaultResolution::kFailedOver;
            }
            auto copy = std::make_shared<RebuildCopy>(
                RebuildCopy{disk, resume, targets.size()});
            for (const ReplicaLocation& loc : targets) {
              EnqueueRebuildWrite(loc, len, copy);
            }
            return FaultResolution::kFailedOver;  // unread: the read succeeded
          };
      drives().MaybeDispatch(SlotId(source_disk));
      return;  // continue from the completion callbacks
    }
    lba += span;
  }
  FinishRebuild(IoStatus::kOk);
}

void ArrayController::EnqueueRebuildWrite(ReplicaLocation loc, uint32_t len,
                                          std::shared_ptr<RebuildCopy> copy) {
  if (drives().failed(SlotId(loc.disk))) {
    // The target slot died between sourcing the copy and issuing the write;
    // an entry queued to a failed disk would never dispatch. The fragment is
    // lost and the stream advances (RebuildNextFragment aborts the rebuild
    // when the target itself is the failed disk).
    EndRebuildWrite(*copy, /*copied=*/false);
    return;
  }
  QueuedRequest w;
  w.op = DiskOp::kWrite;
  w.sectors = len;
  w.candidates = {QueueCandidate(BlockAddr(loc.lba))};
  const uint64_t id = drives().EnqueueDelayed(SlotId(loc.disk), std::move(w));
  maintenance_[id] = [this, loc, len, copy](const DiskOpResult& r) {
    if (r.status != IoStatus::kOk && !drives().failed(SlotId(loc.disk))) {
      // Transient failure of the copy write: retry after backoff. The write
      // itself repairs any latent error at the target (firmware remap).
      ++fstats().retries_issued;
      drives().ScheduleRecovery(
          1, [this, loc, len, copy]() { EnqueueRebuildWrite(loc, len, copy); });
      return FaultResolution::kRetried;
    }
    // A failure here means the target slot died mid-copy.
    EndRebuildWrite(*copy, /*copied=*/r.ok());
    return FaultResolution::kAbandoned;  // read only when the target died
  };
  drives().MaybeDispatch(SlotId(loc.disk));
}

void ArrayController::EndRebuildWrite(RebuildCopy& copy, bool copied) {
  if (copied) {
    ++rebuild_copied_;
  } else {
    ++fstats().rebuild_fragments_lost;
  }
  if (--copy.writes_left == 0) {
    RebuildNextFragment(copy.disk, copy.resume);
  }
}

void ArrayController::ScheduleRecalibration(uint32_t disk) {
  recalibration_events_[disk] =
      sim_->ScheduleAfter(options_.recalibration_interval_us, [this, disk]() {
    auto* hp = dynamic_cast<HeadPositionPredictor*>(drives().predictor(SlotId(disk)));
    // A failed slot never dispatches: skip its read rather than strand it in
    // the queue, and keep the timer armed for after the rebuild.
    if (hp != nullptr && !drives().failed(SlotId(disk))) {
      QueuedRequest entry;
      entry.op = DiskOp::kRead;
      entry.sectors = 1;
      entry.candidates = {QueueCandidate(BlockAddr(hp->reference_lba()))};
      const uint64_t id = drives().EnqueueFg(SlotId(disk), std::move(entry));
      maintenance_[id] = [this, disk](const DiskOpResult& r) {
        // A failed reference read has nothing to recover: the observation is
        // simply missed and the next timer issues a fresh one.
        if (r.ok()) {
          ++stats_.maintenance_reads;
          if (auto* predictor = dynamic_cast<HeadPositionPredictor*>(
                  drives().predictor(SlotId(disk)))) {
            predictor->AddReferenceObservation(r.completion_us);
          }
        }
        return FaultResolution::kSurfaced;
      };
      drives().MaybeDispatch(SlotId(disk));
    }
    ScheduleRecalibration(disk);
  });
}

void ArrayController::ExportStats(StatsRegistry* registry) const {
  ExportFaultStats(fault_stats(), registry);
  registry->Set("array.reads_completed",
                static_cast<double>(op_stats().reads_completed));
  registry->Set("array.writes_completed",
                static_cast<double>(op_stats().writes_completed));
  registry->Set("array.delayed_writes_completed",
                static_cast<double>(stats_.delayed_writes_completed));
  registry->Set("array.delayed_writes_forced",
                static_cast<double>(stats_.delayed_writes_forced));
  registry->Set("array.delayed_writes_discarded",
                static_cast<double>(stats_.delayed_writes_discarded));
  registry->Set("array.read_duplicates_cancelled",
                static_cast<double>(stats_.read_duplicates_cancelled));
  registry->Set("array.maintenance_reads",
                static_cast<double>(stats_.maintenance_reads));
  registry->Set("array.parked_reads",
                static_cast<double>(stats_.parked_reads));
  registry->Set("array.stale_fallback_reads",
                static_cast<double>(stats_.stale_fallback_reads));
  registry->Set("array.delayed_backlog", static_cast<double>(nvram_.size()));
  registry->Set("array.rebuild_copied_fragments",
                static_cast<double>(rebuild_copied_));
}

}  // namespace mimdraid
