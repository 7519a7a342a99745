#include "src/io/array_backend.h"

#include <utility>

#include "src/util/check.h"

namespace mimdraid {

uint64_t ArrayBackend::BeginOp(DiskOp op, uint64_t lba, uint32_t sectors,
                               uint32_t parts, DoneFn done, SimTime issue_us) {
  const uint64_t op_id = next_op_id_++;
  if (drives_.collector() != nullptr) {
    drives_.collector()->OnRequestArrival(op_id, op == DiskOp::kWrite, lba,
                                          sectors, issue_us);
  }
  LogicalOp& o = ops_[op_id];
  o.op = op;
  o.parts_remaining = parts;
  o.done = std::move(done);
  return op_id;
}

void ArrayBackend::AddOpParts(uint64_t op_id, uint32_t parts) {
  auto it = ops_.find(op_id);
  MIMDRAID_CHECK(it != ops_.end());
  it->second.parts_remaining += parts;
}

void ArrayBackend::NoteOpRecovery(uint64_t op_id) {
  auto it = ops_.find(op_id);
  if (it != ops_.end()) {
    ++it->second.recovery_attempts;
  }
}

void ArrayBackend::FinishOpPart(uint64_t op_id, IoStatus status,
                                const FinalLeg* leg) {
  MIMDRAID_DCHECK(status == IoStatus::kOk ||
                  status == IoStatus::kUnrecoverable);
  auto it = ops_.find(op_id);
  MIMDRAID_CHECK(it != ops_.end());
  LogicalOp& o = it->second;
  if (status != IoStatus::kOk) {
    o.status = status;
  }
  MIMDRAID_CHECK_GT(o.parts_remaining, 0u);
  if (--o.parts_remaining > 0) {
    return;
  }
  const IoResult io{o.status, drives_.sim()->Now(), o.recovery_attempts};
  if (io.status != IoStatus::kOk) {
    ++fstats().unrecoverable_completions;
  } else if (o.op == DiskOp::kRead) {
    ++op_stats_.reads_completed;
  } else {
    ++op_stats_.writes_completed;
  }
  if (drives_.collector() != nullptr) {
    drives_.collector()->OnRequestComplete(op_id, io.status, io.completion_us,
                                           io.recovery_attempts, leg);
  }
  DoneFn done = std::move(o.done);
  ops_.erase(it);
  if (done) {
    done(io);
  }
}

void ArrayBackend::Rebuild(SlotId disk, DoneFn done) {
  MIMDRAID_CHECK(drives_.failed(disk));
  if (rebuilding_.has_value()) {
    rebuild_queue_.push_back(QueuedRebuild{disk, std::move(done)});
    return;
  }
  StartRebuild(disk, std::move(done));
}

void ArrayBackend::StartRebuild(SlotId slot, DoneFn done) {
  MIMDRAID_CHECK(drives_.failed(slot));
  MIMDRAID_CHECK(!rebuilding_.has_value());
  drives_.MarkReplaced(slot);
  rebuilding_ = slot;
  rebuild_done_ = std::move(done);
  StartRebuildPass(slot);
}

void ArrayBackend::FinishRebuild(IoStatus status) {
  MIMDRAID_CHECK(rebuilding_.has_value());
  rebuilding_.reset();
  DoneFn done = std::move(rebuild_done_);
  rebuild_done_ = nullptr;
  if (done) {
    done(IoResult{status, drives_.sim()->Now(), 0});
  }
  // `done` may itself have started a pass; the queue then waits for it.
  if (!rebuilding_.has_value() && !rebuild_queue_.empty()) {
    QueuedRebuild next = std::move(rebuild_queue_.front());
    rebuild_queue_.erase(rebuild_queue_.begin());
    StartRebuild(next.slot, std::move(next.done));
  }
}

void ArrayBackend::OnSparePromoted(SlotId disk) {
  Rebuild(disk, [this](const IoResult& r) {
    if (r.status == IoStatus::kOk) {
      ++fstats().spare_rebuilds_completed;
    }
  });
}

bool ArrayBackend::ScrubEligible() const {
  return ops_.empty() && !RequestsWaiting() && !RebuildInProgress();
}

bool ArrayBackend::Idle() const {
  return ops_.empty() && !RequestsWaiting() && !RebuildInProgress() &&
         drives_.pending_recovery() == 0 && drives_.AllDrivesQuiet();
}

void ExportFaultStats(const FaultRecoveryStats& stats,
                      StatsRegistry* registry) {
  registry->Set("fault.media_errors_seen",
                static_cast<double>(stats.media_errors_seen));
  registry->Set("fault.timeouts_seen",
                static_cast<double>(stats.timeouts_seen));
  registry->Set("fault.disk_failed_seen",
                static_cast<double>(stats.disk_failed_seen));
  registry->Set("fault.retries_issued",
                static_cast<double>(stats.retries_issued));
  registry->Set("fault.failovers", static_cast<double>(stats.failovers));
  registry->Set("fault.reconstructions",
                static_cast<double>(stats.reconstructions));
  registry->Set("fault.repairs_queued",
                static_cast<double>(stats.repairs_queued));
  registry->Set("fault.unrecoverable_completions",
                static_cast<double>(stats.unrecoverable_completions));
  registry->Set("fault.auto_disk_failures",
                static_cast<double>(stats.auto_disk_failures));
  registry->Set("fault.spares_promoted",
                static_cast<double>(stats.spares_promoted));
  registry->Set("fault.spare_rejected",
                static_cast<double>(stats.spare_rejected));
  registry->Set("fault.spare_rebuilds_completed",
                static_cast<double>(stats.spare_rebuilds_completed));
  registry->Set("fault.propagations_abandoned",
                static_cast<double>(stats.propagations_abandoned));
  registry->Set("fault.rebuild_fragments_lost",
                static_cast<double>(stats.rebuild_fragments_lost));
  registry->Set("fault.scrub_reads", static_cast<double>(stats.scrub_reads));
  registry->Set("fault.scrub_repairs",
                static_cast<double>(stats.scrub_repairs));
  registry->Set("fault.scrub_sweeps_completed",
                static_cast<double>(stats.scrub_sweeps_completed));
  registry->Set("fault.scrub_sectors_read",
                static_cast<double>(stats.scrub_sectors_read));
  registry->Set("fault.scrub_last_sweep_coverage",
                stats.scrub_last_sweep_coverage);
}

}  // namespace mimdraid
