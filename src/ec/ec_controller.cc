#include "src/ec/ec_controller.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {
namespace {

// The resolution of a command whose failure, if any, is surfaced: the loss
// reaches the submitter or the rebuild tally, or the work is best-effort.
std::optional<FaultResolution> Surfaced(const DiskOpResult& r) {
  return r.ok() ? std::nullopt : std::optional(FaultResolution::kSurfaced);
}

}  // namespace

EcController::EcController(Simulator* sim, std::vector<SimDisk*> disks,
                           std::vector<AccessPredictor*> predictors,
                           const EcLayout* layout, const EcCodec* codec,
                           const DriveSetOptions& options)
    : ArrayBackend(sim, std::move(disks), std::move(predictors), options),
      sim_(sim),
      layout_(layout),
      codec_(codec),
      auditor_(options.auditor) {
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK(codec != nullptr);
  MIMDRAID_CHECK_EQ(drives().num_slots(), layout->num_disks());
  MIMDRAID_CHECK_EQ(codec->n(), layout->num_disks());
  MIMDRAID_CHECK_EQ(codec->k(), layout->data_shards());
  StartScrub();
}

void EcController::AuditQuiescent() const {
  if (auditor_ == nullptr) {
    return;
  }
  auditor_->CheckQuiescent(drives().TotalFgQueued(),
                           drives().TotalDelayedQueued(),
                           /*nvram_entries=*/0, /*stale_sectors=*/0,
                           /*inflight_writes=*/0, /*parked_requests=*/0,
                           commands_.size());
}

void EcController::ExportStats(StatsRegistry* registry) const {
  MIMDRAID_CHECK(registry != nullptr);
  ExportFaultStats(fault_stats(), registry);
  registry->Set("ec.reads_completed",
                static_cast<double>(op_stats().reads_completed));
  registry->Set("ec.writes_completed",
                static_cast<double>(op_stats().writes_completed));
  registry->Set("ec.rmw_writes", static_cast<double>(stats_.rmw_writes));
  registry->Set("ec.reconstruct_writes",
                static_cast<double>(stats_.reconstruct_writes));
  registry->Set("ec.degraded_reads",
                static_cast<double>(stats_.degraded_reads));
  registry->Set("ec.degraded_writes",
                static_cast<double>(stats_.degraded_writes));
  registry->Set("ec.rebuilt_rows", static_cast<double>(stats_.rebuilt_rows));
}

bool EcController::FailDisk(SlotId disk) {
  MIMDRAID_CHECK_LT(disk.value(), drives().num_slots());
  if (drives().failed(disk)) {
    return true;
  }
  drives().MarkFailed(disk);
  return true;
}

std::optional<FaultResolution> EcController::OnEntryComplete(
    SlotId disk, const QueuedRequest& entry, BlockAddr chosen_lba,
    const DiskOpResult& result) {
  auto it = commands_.find(entry.id);
  MIMDRAID_CHECK(it != commands_.end());
  CommandDoneFn done = std::move(it->second);
  commands_.erase(it);
  if (!result.ok() && result.status != IoStatus::kDiskFailed &&
      entry.attempts + 1 < kMaxRecoveryAttempts && !drives().failed(disk)) {
    // Transient error or timeout: retry the command after backoff with a
    // fresh queue entry; `done` keeps the command's identity.
    ++fstats().retries_issued;
    const DiskOp op = entry.op;
    const uint32_t sectors = entry.sectors;
    const uint32_t attempts = entry.attempts;
    drives().ScheduleRecovery(
        attempts, [this, disk, op, chosen_lba, sectors, attempts,
                   done = std::move(done)]() mutable {
          EnqueueDiskOp(disk.value(), op, chosen_lba.value(), sectors,
                        std::move(done), attempts + 1);
        });
    return FaultResolution::kRetried;
  }
  return done(result);
}

uint64_t EcController::UsedSpanSectors(SlotId /*disk*/) const {
  return static_cast<uint64_t>(layout_->num_rows()) *
         layout_->stripe_unit_sectors();
}

void EcController::ScrubStep() {
  const uint32_t rows = layout_->num_rows();
  if (rows == 0) {
    return;
  }
  if (scrub_cursor_ >= rows) {
    scrub_cursor_ = 0;
    drives().EndScrubSweep();
  }
  const uint32_t row = scrub_cursor_++;
  const uint32_t unit = layout_->stripe_unit_sectors();
  const uint64_t lba = static_cast<uint64_t>(row) * unit;
  for (uint32_t d = 0; d < layout_->num_disks(); ++d) {
    const bool usable = DiskUsable(d, row);
    drives().NoteScrubUnit(unit, usable);
    if (!usable) {
      continue;
    }
    EnqueueDiskOp(
        d, DiskOp::kRead, lba, unit,
        [this, d, lba, unit](
            const DiskOpResult& r) -> std::optional<FaultResolution> {
          if (r.status == IoStatus::kDiskFailed) {
            // A dead drive read nothing. The fail-stop this read detected
            // may already have promoted a spare into the slot.
            return drives().failed(SlotId(d)) ? FaultResolution::kAbandoned
                                              : FaultResolution::kSurfaced;
          }
          ++fstats().scrub_reads;
          fstats().scrub_sectors_read += unit;
          if (r.ok()) {
            return std::nullopt;
          }
          if (drives().failed(SlotId(d))) {
            return FaultResolution::kAbandoned;
          }
          if (r.status != IoStatus::kMediaError) {
            return FaultResolution::kSurfaced;
          }
          // Latent sector error caught before a failure could turn it into
          // data loss: rewrite the unit so the drive reallocates the bad
          // sectors. The replacement contents are reconstructible from the
          // row peers read by this same sweep.
          ++fstats().scrub_repairs;
          ++fstats().repairs_queued;
          EnqueueDiskOp(d, DiskOp::kWrite, lba, unit, Surfaced);
          return FaultResolution::kRepaired;
        });
  }
}

bool EcController::DiskUsable(uint32_t disk, uint32_t row) const {
  if (drives().failed(SlotId(disk))) {
    return false;  // covers slots waiting in the rebuild queue too
  }
  if (rebuilding() == SlotId(disk)) {
    return row < rebuilt_rows_;
  }
  return true;
}

std::vector<uint32_t> EcController::DecodeSet(
    uint32_t row, uint32_t excluding_disk, uint32_t unreadable_disk) const {
  std::vector<uint32_t> cols;
  std::vector<uint32_t> positions;
  for (uint32_t d = 0; d < layout_->num_disks() && cols.size() < codec_->k();
       ++d) {
    if (d != excluding_disk && d != unreadable_disk && DiskUsable(d, row)) {
      cols.push_back(d);
      positions.push_back(layout_->PositionOfDisk(row, d));
    }
  }
  if (cols.size() < codec_->k()) {
    return {};
  }
  MIMDRAID_CHECK(codec_->CanDecodeFrom(positions));
  return cols;
}

void EcController::Submit(DiskOp op, uint64_t lba, uint32_t sectors,
                          DoneFn done) {
  MIMDRAID_CHECK_GT(sectors, 0u);
  const std::vector<EcFragment> frags = layout_->Map(lba, sectors);
  const uint64_t op_id =
      BeginOp(op, lba, sectors, static_cast<uint32_t>(frags.size()),
              std::move(done), sim_->Now());
  for (const EcFragment& frag : frags) {
    if (op == DiskOp::kRead) {
      SubmitReadFragment(op_id, frag);
    } else {
      SubmitWriteFragment(op_id, frag);
    }
  }
}

void EcController::SubmitReadFragment(uint64_t op_id, const EcFragment& frag,
                                      bool force_degraded,
                                      bool repair_on_success) {
  auto work = std::make_shared<FragWork>();
  work->op_id = op_id;
  work->frag = frag;
  work->op = DiskOp::kRead;
  work->repair_pending = repair_on_success;

  if (!force_degraded && DiskUsable(frag.data_disk, frag.row)) {
    work->phase_remaining = 1;
    EnqueueDiskOp(
        frag.data_disk, DiskOp::kRead, frag.disk_lba, frag.sectors,
        [this, work](const DiskOpResult& r) -> std::optional<FaultResolution> {
          if (r.ok()) {
            FragmentPhaseDone(work, &r);
            return std::nullopt;
          }
          // Direct read failed past the retry budget: fail over to decode
          // reconstruction. A media error additionally queues a repair
          // rewrite once the data is back in hand.
          NoteOpRecovery(work->op_id);
          ++fstats().failovers;
          const bool repair =
              r.status == IoStatus::kMediaError &&
              !drives().failed(SlotId(work->frag.data_disk));
          SubmitReadFragment(work->op_id, work->frag,
                             /*force_degraded=*/true, repair);
          return FaultResolution::kFailedOver;
        });
    return;
  }

  // Degraded read: decode the missing data unit through any k readable
  // columns. Columns are taken in ascending disk order — deterministic, and
  // Cauchy generators make every k-subset invertible.
  const std::vector<uint32_t> cols =
      DecodeSet(frag.row, frag.data_disk, layout_->num_disks());
  if (cols.empty()) {
    // More than m row members are gone: the data is lost. Finish the
    // fragment gracefully instead of crashing.
    CompleteFragmentFailed(op_id);
    return;
  }
  work->phase_remaining = static_cast<int>(cols.size());
  ++stats_.degraded_reads;
  ++fstats().reconstructions;
  for (uint32_t d : cols) {
    EnqueueDiskOp(d, DiskOp::kRead, frag.disk_lba, frag.sectors,
                  [this, work](const DiskOpResult& r) {
                    if (!r.ok()) {
                      // A fault while decoding an already-missing member:
                      // the loss is surfaced to the submitter.
                      work->status = IoStatus::kUnrecoverable;
                    }
                    FragmentPhaseDone(work, &r);
                    return Surfaced(r);
                  });
  }
}

void EcController::SubmitWriteFragment(uint64_t op_id, const EcFragment& frag,
                                       bool force_degraded) {
  auto work = std::make_shared<FragWork>();
  work->op_id = op_id;
  work->frag = frag;
  work->op = DiskOp::kWrite;
  work->force_degraded = force_degraded;

  const uint32_t k = codec_->k();
  const uint32_t m = codec_->m();
  const bool data_writable = DiskUsable(frag.data_disk, frag.row);
  const bool data_readable = data_writable && !force_degraded;
  uint32_t live_parities = 0;
  for (uint32_t j = 0; j < m; ++j) {
    if (DiskUsable(layout_->ParityDiskOf(frag.row, j), frag.row)) {
      ++live_parities;
    }
  }
  if (!data_writable && live_parities == 0) {
    // Neither the data unit nor any parity can record the write: the
    // fragment's contents cannot be persisted anywhere.
    CompleteFragmentFailed(op_id);
    return;
  }
  if (force_degraded || !data_writable || live_parities < m) {
    ++stats_.degraded_writes;
  }

  if (live_parities == 0) {
    // No parity to maintain: just write the data.
    work->phase_remaining = 1;
    FragmentPhaseDone(work);
    return;
  }

  // Price the two parity-update strategies by read count (the write count —
  // data if writable plus every live parity — is identical under both):
  //   RMW          1 + live_parities  (old data + old parities; needs the
  //                                    old data readable)
  //   RCW direct   k - 1              (every other data column readable)
  //   RCW decode   k                  (any k readable columns reconstruct
  //                                    the other data units first)
  // and take the argmin, tied toward RMW. RCW-direct dominates RCW-decode
  // whenever it is valid, so at most one RCW variant competes; and when RMW
  // is valid and reads no more than k - 1, it wins outright, so the RCW read
  // set is never built (the common healthy small write allocates nothing
  // here).
  const uint32_t rmw_reads = 1 + live_parities;
  const bool rmw_valid = data_readable;
  std::vector<uint32_t> rcw_reads;
  bool rcw_valid = false;
  if (!rmw_valid || rmw_reads > k - 1) {
    std::vector<uint32_t> other_data;
    bool others_readable = true;
    for (uint32_t s = 0; s < k; ++s) {
      if (s == frag.shard_index) {
        continue;
      }
      const uint32_t d = layout_->DataDiskOf(frag.row, s);
      other_data.push_back(d);
      if (!DiskUsable(d, frag.row)) {
        others_readable = false;
      }
    }
    if (others_readable) {
      rcw_reads = std::move(other_data);
      rcw_valid = true;
    } else {
      // A sibling data column is down: reconstruct it (and the rest) through
      // an arbitrary decode set. The target's own old unit is a valid decode
      // column unless its contents are what we failed to read.
      rcw_reads = DecodeSet(
          frag.row, layout_->num_disks(),
          force_degraded ? frag.data_disk : layout_->num_disks());
      rcw_valid = !rcw_reads.empty();
    }
  }

  if (!rmw_valid && !rcw_valid) {
    // Fewer than k readable columns and no old data to delta against: the
    // new parity cannot be computed.
    CompleteFragmentFailed(op_id);
    return;
  }
  const bool use_rmw =
      rmw_valid &&
      (!rcw_valid || rmw_reads <= static_cast<uint32_t>(rcw_reads.size()));

  // Shared handler for every read-phase sub-op of a write fragment.
  auto read_cb = [this, work](
                     const DiskOpResult& r) -> std::optional<FaultResolution> {
    if (work->abandoned) {
      return Surfaced(r);
    }
    if (!r.ok()) {
      if (r.status == IoStatus::kDiskFailed) {
        // Row membership changed under us: re-plan against the survivors.
        work->abandoned = true;
        NoteOpRecovery(work->op_id);
        SubmitWriteFragment(work->op_id, work->frag, work->force_degraded);
        return FaultResolution::kFailedOver;
      }
      if (!work->force_degraded) {
        // A pre-image is unreadable; re-plan once with the old data treated
        // as lost (forcing a reconstruct-write that avoids it).
        work->abandoned = true;
        NoteOpRecovery(work->op_id);
        ++fstats().failovers;
        SubmitWriteFragment(work->op_id, work->frag, /*force_degraded=*/true);
        return FaultResolution::kFailedOver;
      }
      // Already on the fallback plan and a decode column is unreadable: the
      // new parity cannot be computed.
      work->status = IoStatus::kUnrecoverable;
    }
    FragmentPhaseDone(work, &r);
    return Surfaced(r);
  };

  if (use_rmw) {
    ++stats_.rmw_writes;
    work->phase_remaining = static_cast<int>(rmw_reads);
    EnqueueDiskOp(frag.data_disk, DiskOp::kRead, frag.disk_lba, frag.sectors,
                  read_cb);
    for (uint32_t j = 0; j < m; ++j) {
      const uint32_t p = layout_->ParityDiskOf(frag.row, j);
      if (DiskUsable(p, frag.row)) {
        EnqueueDiskOp(p, DiskOp::kRead, frag.disk_lba, frag.sectors, read_cb);
      }
    }
    return;
  }

  ++stats_.reconstruct_writes;
  work->phase_remaining = static_cast<int>(rcw_reads.size());
  if (work->phase_remaining == 0) {
    // k == 1: the new data alone determines every parity.
    work->phase_remaining = 1;
    FragmentPhaseDone(work);
    return;
  }
  for (uint32_t d : rcw_reads) {
    EnqueueDiskOp(d, DiskOp::kRead, frag.disk_lba, frag.sectors, read_cb);
  }
}

void EcController::FragmentPhaseDone(const std::shared_ptr<FragWork>& work,
                                     const DiskOpResult* last) {
  MIMDRAID_CHECK_GT(work->phase_remaining, 0);
  if (--work->phase_remaining > 0) {
    return;
  }
  const EcFragment& frag = work->frag;
  if (work->op == DiskOp::kRead) {
    if (work->status == IoStatus::kOk && work->repair_pending &&
        DiskUsable(frag.data_disk, frag.row)) {
      // Reconstructed data in hand: rewrite the latent-bad sectors so the
      // drive reallocates them. Best-effort — if the rewrite fails the next
      // read simply degrades again.
      ++fstats().repairs_queued;
      EnqueueDiskOp(frag.data_disk, DiskOp::kWrite, frag.disk_lba,
                    frag.sectors, Surfaced);
    }
    FinishFragment(work->op_id, work->status, last);
    return;
  }

  // Write: the read phase (if any) is done.
  if (work->status != IoStatus::kOk) {
    // A pre-image or decode read failed; the new parity cannot be computed.
    FinishFragment(work->op_id, work->status, last);
    return;
  }
  // Each target is counted as it is enqueued: command completions always
  // arrive through the event queue, never inside EnqueueDiskOp.
  auto writes = std::make_shared<int>(0);
  auto on_write = [this, work, writes](
                      const DiskOpResult& r) -> std::optional<FaultResolution> {
    if (work->abandoned) {
      return Surfaced(r);
    }
    if (!r.ok()) {
      if (r.status == IoStatus::kDiskFailed) {
        // The target died mid-write: re-plan the fragment; the surviving
        // members are (re)written by the new plan.
        work->abandoned = true;
        NoteOpRecovery(work->op_id);
        SubmitWriteFragment(work->op_id, work->frag, work->force_degraded);
        return FaultResolution::kFailedOver;
      }
      work->status = IoStatus::kUnrecoverable;
    }
    MIMDRAID_CHECK_GT(*writes, 0);
    if (--*writes == 0) {
      FinishFragment(work->op_id, work->status, &r);
    }
    return Surfaced(r);
  };
  if (DiskUsable(frag.data_disk, frag.row)) {
    ++*writes;
    EnqueueDiskOp(frag.data_disk, DiskOp::kWrite, frag.disk_lba, frag.sectors,
                  on_write);
  }
  for (uint32_t j = 0; j < codec_->m(); ++j) {
    const uint32_t p = layout_->ParityDiskOf(frag.row, j);
    if (DiskUsable(p, frag.row)) {
      ++*writes;
      EnqueueDiskOp(p, DiskOp::kWrite, frag.disk_lba, frag.sectors, on_write);
    }
  }
  if (*writes == 0) {
    // Every target died while the reads were in flight.
    CompleteFragmentFailed(work->op_id);
  }
}

void EcController::FinishFragment(uint64_t op_id, IoStatus status,
                                  const DiskOpResult* last) {
  if (last == nullptr) {
    FinishOpPart(op_id, status, nullptr);
    return;
  }
  const FinalLeg leg = LegOf(*last, last->start_us);
  FinishOpPart(op_id, status, &leg);
}

void EcController::CompleteFragmentFailed(uint64_t op_id) {
  drives().CompleteDeferred([this, op_id] {
    FinishOpPart(op_id, IoStatus::kUnrecoverable, nullptr);
  });
}

void EcController::EnqueueDiskOp(uint32_t disk, DiskOp op, uint64_t lba,
                                 uint32_t sectors, CommandDoneFn done,
                                 uint32_t attempts) {
  const SlotId slot(disk);
  QueuedRequest entry;
  entry.op = op;
  entry.sectors = sectors;
  entry.candidates = {QueueCandidate(BlockAddr(lba))};
  entry.attempts = attempts;
  commands_.emplace(drives().EnqueueFg(slot, std::move(entry)),
                    std::move(done));
  drives().MaybeDispatch(slot);
}

void EcController::StartRebuildPass(SlotId /*slot*/) {
  rebuilt_rows_ = 0;
  rebuild_rows_lost_ = 0;
  RebuildNextRow();
}

void EcController::AbortRebuild(uint32_t disk) {
  if (rebuilding() != SlotId(disk)) {
    return;
  }
  // The replacement drive itself died; a queued slot (if any) takes over.
  FinishRebuild(IoStatus::kDiskFailed);
}

void EcController::RebuildNextRow() {
  MIMDRAID_CHECK(rebuilding().has_value());
  const uint32_t disk = rebuilding()->value();
  if (drives().failed(SlotId(disk))) {
    AbortRebuild(disk);
    return;
  }
  while (rebuilt_rows_ < layout_->num_rows()) {
    const uint32_t row = rebuilt_rows_;
    const uint32_t unit = layout_->stripe_unit_sectors();
    const uint64_t lba = static_cast<uint64_t>(row) * unit;
    // The target's unit — data or parity alike — is recomputed from any k
    // readable columns of the row.
    const std::vector<uint32_t> cols =
        DecodeSet(row, disk, layout_->num_disks());
    if (cols.empty()) {
      // Too many concurrent losses: this row cannot be reconstructed. Note
      // the loss and keep going — later faults must not wedge the rebuild.
      ++fstats().rebuild_fragments_lost;
      ++rebuild_rows_lost_;
      ++rebuilt_rows_;
      continue;
    }
    auto remaining = std::make_shared<int>(static_cast<int>(cols.size()));
    auto lost = std::make_shared<bool>(false);
    auto column_died = std::make_shared<bool>(false);
    // A failed rebuild command is surfaced in the pass: its row is
    // re-planned or counted lost, or the pass ends when the target died.
    auto write_done = [this, disk](const DiskOpResult& w) {
      if (!w.ok() && drives().failed(SlotId(disk))) {
        AbortRebuild(disk);
        return Surfaced(w);
      }
      if (!w.ok()) {
        ++fstats().rebuild_fragments_lost;
        ++rebuild_rows_lost_;
      } else {
        ++stats_.rebuilt_rows;
      }
      ++rebuilt_rows_;
      RebuildNextRow();
      return Surfaced(w);
    };
    auto after_reads = [this, disk, lba, unit, remaining, lost, column_died,
                        write_done](const DiskOpResult& r) {
      if (!r.ok()) {
        *lost = true;
        if (r.status == IoStatus::kDiskFailed) {
          *column_died = true;
        }
      }
      if (--*remaining > 0) {
        return Surfaced(r);  // the row's other column reads are in flight
      }
      if (drives().failed(SlotId(disk))) {
        AbortRebuild(disk);
      } else if (*column_died) {
        // A decode column fail-stopped mid-row. The engine has already
        // marked it failed, so the readable set shrank: re-plan the same
        // row through the survivors — with m > 1 it may still decode.
        // Terminates because each re-plan consumes a disk failure.
        RebuildNextRow();
      } else if (*lost) {
        ++fstats().rebuild_fragments_lost;
        ++rebuild_rows_lost_;
        ++rebuilt_rows_;
        RebuildNextRow();
      } else {
        EnqueueDiskOp(disk, DiskOp::kWrite, lba, unit, write_done);
      }
      return Surfaced(r);
    };
    for (uint32_t d : cols) {
      EnqueueDiskOp(d, DiskOp::kRead, lba, unit, after_reads);
    }
    return;
  }
  FinishRebuild(rebuild_rows_lost_ > 0 ? IoStatus::kUnrecoverable
                                       : IoStatus::kOk);
}

}  // namespace mimdraid
