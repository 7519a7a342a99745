#include "src/disk/sim_disk.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace mimdraid {

namespace {
// Electronics-only rejection time of a fail-stopped drive.
constexpr SimDuration kFailFastUs = SimDuration(100);
}  // namespace

SimDisk::SimDisk(Simulator* sim, const DiskGeometry& geometry,
                 const SeekProfile& profile, const DiskNoiseModel& noise,
                 uint64_t seed, double spindle_phase_us,
                 double rotation_us_override)
    : sim_(sim),
      geometry_(geometry),
      layout_(std::make_unique<DiskLayout>(&geometry_)),
      noise_(noise),
      rng_(seed) {
  MIMDRAID_CHECK(sim != nullptr);
  deterministic_noise_ = noise_.overhead_stddev_us == 0.0 &&
                         noise_.post_overhead_stddev_us == 0.0 &&
                         noise_.hiccup_prob <= 0.0;
  timing_ = std::make_unique<DiskTimingModel>(
      layout_.get(), profile, spindle_phase_us, rotation_us_override);
  head_.cylinder = layout_->first_data_cylinder();
  head_.head = 0;
}

void SimDisk::Start(DiskOp op, BlockAddr addr, uint32_t sectors,
                    DiskCompletionFn done) {
  const uint64_t lba = addr.value();
  MIMDRAID_CHECK(!busy_);
  MIMDRAID_CHECK_GT(sectors, 0u);
  MIMDRAID_CHECK_LE(lba + sectors, layout_->num_data_sectors());
  busy_ = true;

  const SimTime start = sim_->Now();

  FaultOutcome fault;
  if (fault_injector_ != nullptr) {
    fault = fault_injector_->OnAccess(audit_disk_index_, op == DiskOp::kWrite,
                                      lba, sectors);
  }
  if (fault.status == IoStatus::kDiskFailed ||
      fault.status == IoStatus::kTimeout) {
    // The command never reaches the media: dead electronics reject it almost
    // immediately; a hung drive holds it until the host watchdog (a simulator
    // timer armed per dispatched op) expires and aborts it. Either way the
    // arm does not move and the spindle state is untouched.
    const SimDuration hold =
        fault.status == IoStatus::kDiskFailed
            ? kFailFastUs
            : fault_injector_->options().watchdog_timeout_us;
    DiskOpResult result;
    result.status = fault.status;
    result.start_us = start;
    result.completion_us = start + hold;
    result.overhead_us = static_cast<double>(hold.us());
    inflight_result_ = result;
    if (auditor_ != nullptr) {
      inflight_audit_ =
          AuditFor(result, lba, sectors, op == DiskOp::kWrite, head_);
    }
    if (collector_ != nullptr) {
      inflight_trace_ = TraceFor(result, lba, sectors, op == DiskOp::kWrite);
    }
    inflight_done_ = std::move(done);
    inflight_mechanical_ = false;
    sim_->ScheduleAt(result.completion_us, [this] { CompleteInflight(); });
    return;
  }

  if (op == DiskOp::kWrite && fault_injector_ != nullptr) {
    // Firmware write reallocation: a write over a latent-bad sector remaps it
    // to the zone's spare space and stores the data there — rewriting a bad
    // replica is how the layers above repair latent errors. Remap before
    // timing so the access targets the sector's new physical home. If the
    // zone's spare space is exhausted the drive rewrites in place (heroic
    // retries) — the media error is still cleared.
    for (uint64_t bad :
         fault_injector_->LatentInRange(audit_disk_index_, lba, sectors)) {
      layout_->AddBadSector(bad);
      fault_injector_->OnWriteRepaired(audit_disk_index_, bad);
    }
  }

  // Deterministic noise models (all stddevs zero, no hiccups) collapse the
  // Gaussian draws to their means; skipping the sampler saves two Box-Muller
  // pairs per op. The drive RNG has no other consumers, so partially-noisy
  // models still take the sampling path with an unchanged stream.
  double overhead = deterministic_noise_
                        ? noise_.overhead_mean_us
                        : rng_.Normal(noise_.overhead_mean_us,
                                      noise_.overhead_stddev_us);
  overhead = std::max(overhead, 0.0);
  if (noise_.hiccup_prob > 0.0 && rng_.Bernoulli(noise_.hiccup_prob)) {
    overhead += rng_.Exponential(noise_.hiccup_mean_us);
  }
  if (fault.status == IoStatus::kMediaError) {
    // The drive burns revolutions on internal re-reads before giving up.
    overhead += kMediaRetryPenaltyUs;
  }

  const AccessPlan plan =
      timing_->Plan(head_, static_cast<double>(start.us()) + overhead, lba, sectors,
                    op == DiskOp::kWrite);
  if (fault.service_multiplier > 1.0) {
    // Fail-slow drive: the mechanical access is stretched; book the stretch
    // as overhead so the decomposition still sums to the service time.
    overhead += (fault.service_multiplier - 1.0) * plan.total_us;
  }
  double post = deterministic_noise_
                    ? noise_.post_overhead_mean_us
                    : rng_.Normal(noise_.post_overhead_mean_us,
                                  noise_.post_overhead_stddev_us);
  post = std::max(post, 0.0);
  const double total = overhead + plan.total_us + post;
  const SimTime completion =
      start + SimDuration(static_cast<int64_t>(total + 0.5));

  DiskOpResult result;
  result.status = fault.status;
  result.start_us = start;
  result.completion_us = completion;
  result.overhead_us = overhead + post;
  result.seek_us = plan.seek_us;
  result.rotational_us = plan.rotational_us;
  result.transfer_us = plan.transfer_us;

  // Pre-built audit/trace records (cheap PODs; only filled when observed),
  // parked in the in-flight slot until the completion event fires.
  inflight_plan_ = plan;
  inflight_result_ = result;
  if (auditor_ != nullptr) {
    inflight_audit_ = AuditFor(result, lba, sectors, op == DiskOp::kWrite,
                               plan.end_state);
  }
  if (collector_ != nullptr) {
    inflight_trace_ = TraceFor(result, lba, sectors, op == DiskOp::kWrite);
  }
  inflight_done_ = std::move(done);
  inflight_mechanical_ = true;

  sim_->ScheduleAt(completion, [this] { CompleteInflight(); });
}

void SimDisk::CompleteInflight() {
  // Copy/move the in-flight state out before invoking the callback: the
  // callback routinely Start()s the next request, which re-fills the slot.
  const DiskOpResult result = inflight_result_;
  if (inflight_mechanical_) {
    head_ = inflight_plan_.end_state;
  }
  busy_ = false;
  if (result.status == IoStatus::kOk) {
    ++ops_completed_;
  }
  if (auditor_ != nullptr) {
    auditor_->OnDiskOpComplete(inflight_audit_);
  }
  if (collector_ != nullptr) {
    collector_->OnDiskOp(inflight_trace_);
  }
  DiskCompletionFn cb = std::move(inflight_done_);
  if (cb) {
    cb(result);
  }
}

DiskOpRecord SimDisk::TraceFor(const DiskOpResult& result, uint64_t lba,
                               uint32_t sectors, bool is_write) const {
  DiskOpRecord rec;
  rec.slot = trace_slot_;
  rec.is_write = is_write;
  rec.lba = lba;
  rec.sectors = sectors;
  rec.status = result.status;
  rec.start_us = result.start_us;
  rec.completion_us = result.completion_us;
  rec.overhead_us = result.overhead_us;
  rec.seek_us = result.seek_us;
  rec.rotational_us = result.rotational_us;
  rec.transfer_us = result.transfer_us;
  return rec;
}

DiskOpAudit SimDisk::AuditFor(const DiskOpResult& result, uint64_t lba,
                              uint32_t sectors, bool is_write,
                              const HeadState& end_state) const {
  DiskOpAudit audit;
  audit.disk = audit_disk_index_;
  audit.is_write = is_write;
  audit.lba = lba;
  audit.sectors = sectors;
  audit.start_us = result.start_us;
  audit.completion_us = result.completion_us;
  audit.overhead_us = result.overhead_us;
  audit.seek_us = result.seek_us;
  audit.rotational_us = result.rotational_us;
  audit.transfer_us = result.transfer_us;
  audit.head_cylinder = end_state.cylinder;
  audit.head_index = end_state.head;
  audit.num_cylinders = geometry_.num_cylinders;
  audit.num_heads = geometry_.num_heads;
  audit.spindle_phase_us = timing_->spindle_phase_us();
  audit.rotation_us = timing_->rotation_us();
  return audit;
}

}  // namespace mimdraid
