// Event-driven model of a single disk drive.
//
// SimDisk services one request at a time (the external scheduling layer owns
// the queue, matching the prototype architecture of Section 3.1 where the
// Scheduling Layer maintains a drive queue per physical disk). Service time
// is computed by DiskTimingModel with the drive's true spindle phase, plus a
// stochastic per-operation overhead that models OS + SCSI + controller
// processing. The overhead is the part the paper's head-position predictor
// cannot observe — it is what makes prediction a non-trivial problem.
#ifndef MIMDRAID_SRC_DISK_SIM_DISK_H_
#define MIMDRAID_SRC_DISK_SIM_DISK_H_

#include <cstdint>
#include <memory>

#include "src/disk/geometry.h"
#include "src/disk/layout.h"
#include "src/disk/seek_profile.h"
#include "src/disk/timing.h"
#include "src/obs/trace_collector.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/util/inline_fn.h"
#include "src/util/rng.h"

namespace mimdraid {

enum class DiskOp { kRead, kWrite };

// Stochastic request overhead. The pre-access part (command processing, bus,
// controller) delays the start of the mechanical access and is what causes
// rotational misses when a predicted wait was small; the post-access part
// (interrupt delivery, timestamping) jitters the observed completion time and
// is what limits the precision of timestamp-based calibration. A rare heavy
// tail models hiccups such as bus contention or thermal recalibration.
struct DiskNoiseModel {
  double overhead_mean_us = 300.0;
  double overhead_stddev_us = 40.0;
  double post_overhead_mean_us = 50.0;
  double post_overhead_stddev_us = 15.0;
  double hiccup_prob = 0.0;
  double hiccup_mean_us = 3000.0;

  // Noise-free instance for "pure simulator" runs: deterministic overheads.
  static DiskNoiseModel None() {
    return DiskNoiseModel{.overhead_mean_us = 300.0,
                          .overhead_stddev_us = 0.0,
                          .post_overhead_mean_us = 50.0,
                          .post_overhead_stddev_us = 0.0,
                          .hiccup_prob = 0.0,
                          .hiccup_mean_us = 0.0};
  }

  // Noise typical of the prototype platform (Table 1 environment).
  static DiskNoiseModel Prototype() {
    return DiskNoiseModel{.overhead_mean_us = 300.0,
                          .overhead_stddev_us = 40.0,
                          .post_overhead_mean_us = 50.0,
                          .post_overhead_stddev_us = 15.0,
                          .hiccup_prob = 0.001,
                          .hiccup_mean_us = 3000.0};
  }
};

struct DiskOpResult {
  // How the command ended. Anything but kOk means the data did not move;
  // the layer above decides between retry, failover, reconstruction, and
  // surfacing the error (see src/sim/io_status.h).
  IoStatus status = IoStatus::kOk;
  SimTime start_us;
  SimTime completion_us;
  // Decomposition of the service time (ground truth; used by statistics and
  // tests, never by the calibration layer).
  double overhead_us = 0.0;
  double seek_us = 0.0;
  double rotational_us = 0.0;
  double transfer_us = 0.0;

  SimDuration ServiceUs() const { return completion_us - start_us; }
  bool ok() const { return status == IoStatus::kOk; }
};

// Completion callback: move-only, invoked exactly once. The inline capacity
// covers the engine's biggest closure — DriveSet's dispatch completion, which
// carries a QueuedRequest — so the steady I/O path never heap-allocates a
// callback.
using DiskCompletionFn = InlineFn<void(const DiskOpResult&), 144>;

class SimDisk {
 public:
  // `spindle_phase_us` sets where in its rotation the platter is at t=0;
  // unsynchronized spindles get distinct random phases from the array layer.
  // `rotation_us_override` lets the true spindle period deviate from nominal
  // (0 = nominal); see DiskTimingModel.
  SimDisk(Simulator* sim, const DiskGeometry& geometry,
          const SeekProfile& profile, const DiskNoiseModel& noise,
          uint64_t seed, double spindle_phase_us,
          double rotation_us_override = 0.0);

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  // Begins servicing a request. The disk must be idle. `done` fires at the
  // simulated completion time, after the disk has returned to idle, so the
  // callback may immediately start the next request.
  void Start(DiskOp op, BlockAddr lba, uint32_t sectors, DiskCompletionFn done);

  bool busy() const { return busy_; }

  const DiskGeometry& geometry() const { return geometry_; }
  const DiskNoiseModel& noise() const { return noise_; }
  const DiskLayout& layout() const { return *layout_; }
  DiskLayout& mutable_layout() { return *layout_; }

  uint64_t ops_completed() const { return ops_completed_; }
  uint64_t num_sectors() const { return layout_->num_data_sectors(); }

  // Attaches the runtime invariant auditor (nullptr detaches); `disk_index`
  // identifies this drive in audit reports. Borrowed, must outlive the disk.
  void SetAuditor(InvariantAuditor* auditor, SlotId disk_index) {
    auditor_ = auditor;
    audit_disk_index_ = disk_index.value();
  }

  // Attaches the fault injector (nullptr detaches); `disk_index` is the array
  // slot this drive occupies in the injector's state. Borrowed, must outlive
  // the disk. With an injector attached every Start() consults it:
  //  * fail-stop  -> the command is rejected almost immediately (kDiskFailed);
  //  * hang       -> the host watchdog timer aborts the command after
  //                  watchdog_timeout_us (kTimeout); the arm does not move;
  //  * media error-> the access runs mechanically (plus the drive's internal
  //                  retry penalty) but returns kMediaError;
  //  * fail-slow  -> mechanical time is stretched by the drive's multiplier.
  // Writes covering a latent-bad LBA trigger the firmware write-reallocation
  // path: the sector is remapped to spare space (DiskLayout::AddBadSector)
  // and the latent error is cleared — rewriting a bad replica repairs it.
  void SetFaultInjector(FaultInjector* injector, SlotId disk_index) {
    fault_injector_ = injector;
    audit_disk_index_ = disk_index.value();
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Attaches the observability collector (nullptr detaches); `slot` labels
  // this drive's track in the trace. Borrowed, must outlive the disk. Kept
  // separate from audit_disk_index_ so tracing composes with auditing and
  // fault injection without ordering constraints between the Set* calls.
  void SetTraceCollector(TraceCollector* collector, SlotId slot) {
    collector_ = collector;
    trace_slot_ = slot.value();
  }
  TraceCollector* trace_collector() const { return collector_; }

  // --- Introspection for tests and oracle experiments only. ---
  // Production components (calibration, schedulers) must treat the drive as a
  // black box and work from completion timestamps.
  const HeadState& DebugHeadState() const { return head_; }
  const DiskTimingModel& DebugTimingModel() const { return *timing_; }

 private:
  DiskOpAudit AuditFor(const DiskOpResult& result, uint64_t lba,
                       uint32_t sectors, bool is_write,
                       const HeadState& end_state) const;
  DiskOpRecord TraceFor(const DiskOpResult& result, uint64_t lba,
                        uint32_t sectors, bool is_write) const;
  // Fires at the simulated completion time of the in-flight operation.
  void CompleteInflight();

  Simulator* sim_;
  DiskGeometry geometry_;
  std::unique_ptr<DiskLayout> layout_;
  std::unique_ptr<DiskTimingModel> timing_;
  DiskNoiseModel noise_;
  Rng rng_;
  // All noise stddevs zero and no hiccups: overhead draws collapse to means.
  bool deterministic_noise_ = false;
  HeadState head_;
  bool busy_ = false;
  uint64_t ops_completed_ = 0;
  InvariantAuditor* auditor_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  uint32_t audit_disk_index_ = 0;
  TraceCollector* collector_ = nullptr;
  uint32_t trace_slot_ = 0;

  // In-flight operation state. The disk services one request at a time, so
  // the completion event only needs to capture `this` (8 bytes) instead of
  // closing over plan/result/audit/trace/callback (~330 bytes, which forced
  // a heap allocation per op under std::function). CompleteInflight() reads
  // these, releases the disk to idle, then invokes the moved-out callback —
  // which may immediately Start() the next request and overwrite them.
  AccessPlan inflight_plan_;
  DiskOpResult inflight_result_;
  DiskOpAudit inflight_audit_;
  DiskOpRecord inflight_trace_;
  DiskCompletionFn inflight_done_;
  bool inflight_mechanical_ = false;  // false: fault path, arm never moved
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_SIM_DISK_H_
