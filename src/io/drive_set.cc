#include "src/io/drive_set.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {
namespace {

// The result handed back for an entry that never ran on its failed drive.
DiskOpResult DiskFailureAt(SimTime now) {
  DiskOpResult failure;
  failure.status = IoStatus::kDiskFailed;
  failure.start_us = now;
  failure.completion_us = now;
  return failure;
}

}  // namespace

DriveSet::DriveSet(Simulator* sim, std::vector<SimDisk*> disks,
                   std::vector<AccessPredictor*> predictors,
                   DriveSetClient* client, const DriveSetOptions& options)
    : sim_(sim),
      disks_(std::move(disks)),
      predictors_(std::move(predictors)),
      client_(client),
      options_(options) {
  MIMDRAID_CHECK(sim != nullptr);
  MIMDRAID_CHECK(client != nullptr);
  MIMDRAID_CHECK(!disks_.empty());
  MIMDRAID_CHECK_EQ(predictors_.size(), disks_.size());
  const size_t n = disks_.size();
  schedulers_.reserve(n);
  fg_.resize(n);
  delayed_.resize(n);
  failed_.resize(n, false);
  error_counts_.resize(n, 0);
  if (options_.auditor != nullptr) {
    sim_->set_auditor(options_.auditor);
  }
  for (size_t i = 0; i < n; ++i) {
    auto scheduler = MakeScheduler(options_.scheduler, options_.max_scan);
    if (options_.auditor != nullptr) {
      scheduler = MakeAuditedScheduler(
          std::move(scheduler), options_.auditor,
          [this, i]() -> const DiskLayout& { return disks_[i]->layout(); });
    }
    schedulers_.push_back(std::move(scheduler));
    AttachObservers(SlotId(static_cast<uint32_t>(i)));
  }
}

DriveSet::~DriveSet() { StopScrub(); }

void DriveSet::StartScrub() {
  if (options_.scrub_interval_us > SimDuration(0) && !scrub_event_.valid()) {
    ScheduleScrubTick();
  }
}

void DriveSet::StopScrub() {
  if (scrub_event_.valid()) {
    // The tick body clears the handle before running, so a valid handle
    // always names a pending event and cancellation cannot miss.
    MIMDRAID_CHECK(sim_->Cancel(scrub_event_));
    scrub_event_ = EventId();
  }
}

void DriveSet::AddSpare(SimDisk* disk, AccessPredictor* predictor) {
  MIMDRAID_CHECK(disk != nullptr);
  MIMDRAID_CHECK(predictor != nullptr);
  spares_.push_back(SpareEntry{disk, predictor, false});
}

size_t DriveSet::TotalFgQueued() const {
  size_t total = 0;
  for (const auto& q : fg_) {
    total += q.size();
  }
  return total;
}

size_t DriveSet::TotalDelayedQueued() const {
  size_t total = 0;
  for (const auto& q : delayed_) {
    total += q.size();
  }
  return total;
}

bool DriveSet::AllDrivesQuiet() const {
  for (size_t i = 0; i < disks_.size(); ++i) {
    if (disks_[i]->busy() || !fg_[i].empty() || !delayed_[i].empty()) {
      return false;
    }
  }
  return true;
}

bool DriveSet::LiveDrivesQuiet() const {
  for (size_t i = 0; i < disks_.size(); ++i) {
    if (failed_[i]) {
      continue;
    }
    if (disks_[i]->busy() || !fg_[i].empty() || !delayed_[i].empty()) {
      return false;
    }
  }
  return true;
}

QueuedRequest DriveSet::EntryQueue::Take(size_t i) {
  MIMDRAID_CHECK_LT(i, size());
  QueuedRequest entry = std::move(slots_[head_ + i]);
  if (i > 0) {
    slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(head_ + i));
  } else if (++head_ * 16 >= slots_.size()) {
    slots_.erase(slots_.begin(),
                 slots_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  return entry;
}

std::vector<QueuedRequest> DriveSet::EntryQueue::Drain() {
  std::vector<QueuedRequest> drained;
  drained.swap(slots_);
  drained.erase(drained.begin(),
                drained.begin() + static_cast<ptrdiff_t>(head_));
  head_ = 0;
  return drained;
}

uint64_t DriveSet::Admit(SlotId slot, EntryQueue& queue, QueuedRequest entry) {
  const uint64_t id = next_entry_id_++;
  entry.id = id;
  entry.arrival_us = sim_->Now();
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryQueued(slot.value(), id, entry.delayed);
  }
  if (!failed_[slot.value()]) {
    queue.Push(std::move(entry));
    return id;
  }
  // A failed slot never dispatches: hand the entry back unrun, from a clean
  // stack, as the drain would have.
  CompleteDeferred([this, slot, entry = std::move(entry)] {
    if (options_.auditor != nullptr) {
      options_.auditor->OnEntryCancelled(slot.value(), entry.id);
    }
    HandBack(slot, entry, entry.primary(), DiskFailureAt(sim_->Now()));
  });
  return id;
}

uint64_t DriveSet::EnqueueFg(SlotId slot, QueuedRequest entry) {
  const uint64_t id = Admit(slot, fg_[slot.value()], std::move(entry));
  if (options_.collector != nullptr) {
    options_.collector->OnQueueDepth(slot.value(), sim_->Now(),
                                     fg_[slot.value()].size());
  }
  return id;
}

uint64_t DriveSet::EnqueueDelayed(SlotId slot, QueuedRequest entry) {
  return Admit(slot, delayed_[slot.value()], std::move(entry));
}

bool DriveSet::Cancel(SlotId slot, uint64_t id) {
  for (EntryQueue* queue : {&fg_[slot.value()], &delayed_[slot.value()]}) {
    const std::span<QueuedRequest> live = queue->live();
    auto it = std::find_if(live.begin(), live.end(),
                           [id](const QueuedRequest& e) { return e.id == id; });
    if (it == live.end()) {
      continue;
    }
    queue->Take(static_cast<size_t>(it - live.begin()));
    if (options_.auditor != nullptr) {
      options_.auditor->OnEntryCancelled(slot.value(), id);
    }
    if (options_.collector != nullptr && queue == &fg_[slot.value()]) {
      options_.collector->OnQueueDepth(slot.value(), sim_->Now(),
                                       queue->size());
    }
    return true;
  }
  return false;
}

void DriveSet::ForceOutDelayed(SlotId slot) {
  MIMDRAID_CHECK(!delayed_[slot.value()].empty());
  fg_[slot.value()].Push(delayed_[slot.value()].Take(0));
  if (options_.collector != nullptr) {
    options_.collector->OnQueueDepth(slot.value(), sim_->Now(),
                                     fg_[slot.value()].size());
  }
}

void DriveSet::MaybeDispatch(SlotId slot) {
  if (failed_[slot.value()] || disks_[slot.value()]->busy()) {
    return;
  }
  EntryQueue& queue =
      !fg_[slot.value()].empty() ? fg_[slot.value()] : delayed_[slot.value()];
  if (queue.empty()) {
    return;
  }
  const bool from_fg = &queue == &fg_[slot.value()];
  RefreshPositions(queue.live(), disks_[slot.value()]->layout());
  ScheduleContext ctx;
  ctx.now = sim_->Now();
  ctx.predictor = predictors_[slot.value()];
  ctx.collector = options_.collector;
  ctx.disk = slot;
  const SchedulerPick pick =
      schedulers_[slot.value()]->Pick(queue.live(), ctx);
  QueuedRequest entry = queue.Take(pick.queue_index);
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryDispatched(slot.value(), entry.id);
  }
  if (options_.collector != nullptr && from_fg) {
    options_.collector->OnQueueDepth(slot.value(), sim_->Now(), fg_[slot.value()].size());
  }

  client_->OnEntryDispatched(slot, entry);

  // Non-positional schedulers (FCFS/LOOK/...) do not produce a prediction;
  // compute one so head tracking and accuracy statistics work under every
  // policy.
  double predicted = pick.predicted_service_us;
  if (predicted <= 0.0) {
    predicted = predictors_[slot.value()]
                    ->Predict(sim_->Now(), pick.lba, entry.sectors,
                              entry.op == DiskOp::kWrite)
                    .total_us;
  }
  predictors_[slot.value()]->OnDispatch(sim_->Now(), pick.lba, entry.sectors,
                                entry.op == DiskOp::kWrite, predicted);
  const BlockAddr chosen_lba = pick.lba;
  disks_[slot.value()]->Start(
      entry.op, chosen_lba, entry.sectors,
      [this, slot, entry = std::move(entry), chosen_lba,
       predicted](const DiskOpResult& result) {
        predictors_[slot.value()]->OnCompletion(result.completion_us, chosen_lba,
                                        entry.sectors);
        if (options_.collector != nullptr && result.ok()) {
          options_.collector->OnPrediction(
              slot.value(), result.completion_us, predicted,
              static_cast<double>(result.ServiceUs().us()));
        }
        HandleCompletion(slot, entry, chosen_lba, result);
        MaybeDispatch(slot);
      });
}

void DriveSet::HandleCompletion(SlotId slot, const QueuedRequest& entry,
                                BlockAddr chosen_lba,
                                const DiskOpResult& result) {
  if (options_.auditor != nullptr) {
    options_.auditor->OnEntryCompleted(slot.value(), entry.id);
  }
  if (!result.ok()) {
    CountFault(slot, result.status);
  }
  HandBack(slot, entry, chosen_lba, result);
}

void DriveSet::HandBack(SlotId slot, const QueuedRequest& entry,
                        BlockAddr chosen_lba, const DiskOpResult& result) {
  // Open a fault record before any recovery; the policy's resolution closes
  // it once the completion hook returns.
  if (!result.ok() && options_.auditor != nullptr) {
    options_.auditor->OnIoFault(slot.value(), entry.id);
  }
  // The slot's state the policy decides against. Its hook may start the next
  // queued rebuild of this slot, which clears the flag; that must not turn a
  // legal abandonment into a violation.
  const bool target_failed = failed(slot);
  const std::optional<FaultResolution> resolution =
      client_->OnEntryComplete(slot, entry, chosen_lba, result);
  MIMDRAID_CHECK_EQ(resolution.has_value(), !result.ok())
      << "entry " << entry.id << " on disk " << slot.value();
  if (resolution.has_value() && options_.auditor != nullptr) {
    options_.auditor->OnFaultResolved(entry.id, *resolution, target_failed);
  }
}

void DriveSet::FailQueued(SlotId slot) {
  const DiskOpResult failure = DiskFailureAt(sim_->Now());
  for (EntryQueue* queue : {&delayed_[slot.value()], &fg_[slot.value()]}) {
    const std::vector<QueuedRequest> drained = queue->Drain();
    if (options_.collector != nullptr && queue == &fg_[slot.value()] &&
        !drained.empty()) {
      options_.collector->OnQueueDepth(slot.value(), sim_->Now(), 0);
    }
    for (const QueuedRequest& entry : drained) {
      if (options_.auditor != nullptr) {
        options_.auditor->OnEntryCancelled(slot.value(), entry.id);
      }
      HandBack(slot, entry, entry.primary(), failure);
    }
  }
}

void DriveSet::CountFault(SlotId slot, IoStatus status) {
  switch (status) {
    case IoStatus::kMediaError:
      ++fstats_.media_errors_seen;
      break;
    case IoStatus::kTimeout:
      ++fstats_.timeouts_seen;
      break;
    case IoStatus::kDiskFailed:
      ++fstats_.disk_failed_seen;
      break;
    default:
      break;
  }
  if (failed_[slot.value()]) {
    return;  // already declared failed; no further escalation
  }
  if (status == IoStatus::kDiskFailed) {
    AutoFail(slot);
    return;
  }
  ++error_counts_[slot.value()];
  if (options_.disk_error_fail_threshold > 0 &&
      error_counts_[slot.value()] >= options_.disk_error_fail_threshold) {
    AutoFail(slot);
  }
}

void DriveSet::MarkFailed(SlotId slot) {
  failed_[slot.value()] = true;
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->FailStop(slot.value());
  }
  FailQueued(slot);
}

void DriveSet::MarkReplaced(SlotId slot) {
  failed_[slot.value()] = false;
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->ReplaceDisk(slot.value());
  }
}

void DriveSet::AutoFail(SlotId slot) {
  if (failed_[slot.value()]) {
    return;
  }
  ++fstats_.auto_disk_failures;
  MarkFailed(slot);
  PromoteSpareIfAvailable(slot);
}

void DriveSet::PromoteSpareIfAvailable(SlotId slot) {
  if (spares_.empty() || !client_->SparePromotionAllowed(slot)) {
    return;
  }
  // The slot keeps mapping through the failed drive's layout, so the spare
  // must resolve that drive's used physical span and match its sector size.
  // Incompatible candidates are skipped (counted) but stay pooled: a slot
  // they do fit may fail later.
  const uint64_t needed_span = client_->UsedSpanSectors(slot);
  const uint32_t sector_bytes =
      disks_[slot.value()]->layout().geometry().sector_bytes;
  size_t pick = spares_.size();
  for (size_t i = 0; i < spares_.size(); ++i) {
    const DiskLayout& candidate = spares_[i].disk->layout();
    if (candidate.geometry().sector_bytes == sector_bytes &&
        candidate.num_data_sectors() >= needed_span) {
      pick = i;
      break;
    }
    // Each pooled spare contributes to spare_rejected at most once: later
    // promotion attempts re-skip it without re-counting, so multi-failure
    // runs don't inflate the tally.
    if (!spares_[i].rejection_counted) {
      spares_[i].rejection_counted = true;
      ++fstats_.spare_rejected;
    }
  }
  if (pick == spares_.size()) {
    return;  // no compatible spare; the slot stays failed
  }
  SimDisk* const spare_disk = spares_[pick].disk;
  AccessPredictor* const spare_predictor = spares_[pick].predictor;
  spares_.erase(spares_.begin() + static_cast<ptrdiff_t>(pick));
  disks_[slot.value()] = spare_disk;
  predictors_[slot.value()] = spare_predictor;
  if (options_.auditor != nullptr) {
    options_.auditor->OnDiskReplaced(slot.value());
  }
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->ReplaceDisk(slot.value());
  }
  AttachObservers(slot);
  ++fstats_.spares_promoted;
  client_->OnSparePromoted(slot);
}

void DriveSet::AttachObservers(SlotId slot) {
  SimDisk* const drive = disks_[slot.value()];
  drive->SetAuditor(options_.auditor, slot);
  drive->SetFaultInjector(options_.fault_injector, slot);
  drive->SetTraceCollector(options_.collector, slot);
}

void DriveSet::ScheduleRecovery(uint32_t attempt, std::function<void()> fn) {
  ++pending_recovery_;
  sim_->ScheduleAfter(RecoveryBackoffUs(attempt),
                      [this, fn = std::move(fn)]() {
                        --pending_recovery_;
                        fn();
                      });
}

void DriveSet::CompleteDeferred(std::function<void()> fn) {
  ++pending_recovery_;
  sim_->ScheduleAfter(SimDuration(0), [this, fn = std::move(fn)]() {
    --pending_recovery_;
    fn();
  });
}

void DriveSet::EndScrubSweep() {
  ++fstats_.scrub_sweeps_completed;
  fstats_.scrub_last_sweep_coverage =
      sweep_sectors_nominal_ == 0
          ? 0.0
          : static_cast<double>(sweep_sectors_issued_) /
                static_cast<double>(sweep_sectors_nominal_);
  sweep_sectors_issued_ = 0;
  sweep_sectors_nominal_ = 0;
}

void DriveSet::ScheduleScrubTick() {
  scrub_event_ = sim_->ScheduleAfter(options_.scrub_interval_us, [this]() {
    scrub_event_ = EventId();
    ScrubTick();
    ScheduleScrubTick();
  });
}

void DriveSet::ScrubTick() {
  // A backend mid-rebuild or with logical ops outstanding must not sweep.
  if (!client_->ScrubEligible()) {
    return;
  }
  // Idle-gating is the rate limit: a tick that finds any foreground or
  // recovery work simply skips its turn.
  if (pending_recovery_ > 0 || !LiveDrivesQuiet()) {
    return;
  }
  client_->ScrubStep();
}

}  // namespace mimdraid
